package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// collect runs specs through RunSeq and returns the emitted outcomes.
func collect(t *testing.T, r Runner, specs []Spec) []Outcome {
	t.Helper()
	var outs []Outcome
	if err := r.RunSeq(specs, func(o Outcome) { outs = append(outs, o) }); err != nil {
		t.Fatal(err)
	}
	return outs
}

func TestRunnerPreservesOrderAcrossWorkerCounts(t *testing.T) {
	var specs []Spec
	for i := 0; i < 40; i++ {
		i := i
		specs = append(specs, Spec{
			ID:  fmt.Sprintf("s%d", i),
			Run: func() (string, error) { return fmt.Sprintf("artifact %d\n", i), nil },
		})
	}
	var outs [][]Outcome
	for _, workers := range []int{1, 2, 8, 64} {
		outs = append(outs, collect(t, Runner{Workers: workers}, specs))
	}
	for i, o := range outs[1:] {
		if !reflect.DeepEqual(outs[0], o) {
			t.Fatalf("worker count variant %d produced different outcomes", i+1)
		}
	}
	for i, o := range outs[0] {
		if o.ID != specs[i].ID || o.Artifact != fmt.Sprintf("artifact %d\n", i) {
			t.Fatalf("outcome %d out of order: %+v", i, o)
		}
	}
}

func TestRunSeqEmitsInOrderAndStopsOnError(t *testing.T) {
	var specs []Spec
	for i := 0; i < 20; i++ {
		i := i
		run := func() (string, error) { return fmt.Sprintf("a%d;", i), nil }
		if i == 12 {
			run = func() (string, error) { return "", errors.New("spec 12 broke") }
		}
		specs = append(specs, Spec{ID: fmt.Sprintf("s%d", i), Run: run})
	}
	for _, workers := range []int{1, 4, 16} {
		var got string
		err := Runner{Workers: workers}.RunSeq(specs, func(o Outcome) { got += o.Artifact })
		if err == nil || err.Error() != "s12: spec 12 broke" {
			t.Fatalf("workers %d: expected wrapped spec error, got %v", workers, err)
		}
		want := ""
		for i := 0; i < 12; i++ {
			want += fmt.Sprintf("a%d;", i)
		}
		if got != want {
			t.Fatalf("workers %d: emitted %q, want the prefix before the failure", workers, got)
		}
	}
	var got string
	if err := (Runner{Workers: 4}).RunSeq(specs[:12], func(o Outcome) { got += o.Artifact }); err != nil {
		t.Fatal(err)
	}
	if got != "a0;a1;a2;a3;a4;a5;a6;a7;a8;a9;a10;a11;" {
		t.Fatalf("healthy RunSeq emitted %q", got)
	}
	if err := (Runner{}).RunSeq(nil, func(Outcome) { t.Fatal("emit on empty specs") }); err != nil {
		t.Fatal(err)
	}
}

func TestRunnerEmptyAndZeroWorkers(t *testing.T) {
	if got := collect(t, Runner{}, nil); len(got) != 0 {
		t.Fatalf("expected no outcomes, got %d", len(got))
	}
	outs := collect(t, Runner{Workers: -3}, []Spec{{ID: "a", Run: func() (string, error) { return "x", nil }}})
	if len(outs) != 1 || outs[0].Artifact != "x" {
		t.Fatalf("unexpected outcomes %+v", outs)
	}
}

func TestRandomSweepDeterministicAcrossWorkers(t *testing.T) {
	base := SweepConfig{Seed: 5, N: 12, Workers: 1}
	ref, err := RandomSweep(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		cfg := base
		cfg.Workers = workers
		got, err := RandomSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Rows, got.Rows) {
			t.Fatalf("sweep rows differ between 1 and %d workers", workers)
		}
		if SweepTable(ref) != SweepTable(got) {
			t.Fatalf("sweep tables differ between 1 and %d workers", workers)
		}
	}
	other, err := RandomSweep(SweepConfig{Seed: 6, N: 12, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ref.Rows, other.Rows) {
		t.Fatal("different seeds produced identical sweeps")
	}
}

// TestRandomSweepAtScale is the acceptance run: >= 50 generated schemes
// through all three substrate engines concurrently.
func TestRandomSweepAtScale(t *testing.T) {
	res, err := RandomSweep(SweepConfig{Seed: 1, N: 50, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 50*3 {
		t.Fatalf("expected 150 rows, got %d", len(res.Rows))
	}
	seen := map[string]int{}
	for _, r := range res.Rows {
		seen[r.Network]++
		if r.MeanMeasured < 0.999 || r.MeanPredicted < 0.999 {
			t.Fatalf("scheme %d on %s: mean penalty below 1: %+v", r.Scheme, r.Network, r)
		}
		if r.Eabs < 0 {
			t.Fatalf("negative Eabs: %+v", r)
		}
	}
	for _, net := range []string{"gige", "myrinet", "infiniband"} {
		if seen[net] != 50 {
			t.Fatalf("network %s ran %d schemes, want 50", net, seen[net])
		}
	}
}

func TestSelectSpecs(t *testing.T) {
	specs := Specs(DefaultOptions())
	if _, ok := SelectSpecs(specs, "nope"); ok {
		t.Fatal("unknown id matched")
	}
	one, ok := SelectSpecs(specs, "f4")
	if !ok || len(one) != 1 || one[0].ID != "f4" {
		t.Fatalf("f4 selection wrong: %v %v", one, ok)
	}
	if _, ok := SelectSpecs(specs, "rnd"); ok {
		t.Fatal("rnd should be absent without a sweep config")
	}
	withSweep := Specs(Options{HPL: DefaultHPL(), Sweep: SweepConfig{Seed: 1, N: 3}})
	if _, ok := SelectSpecs(withSweep, "rnd"); !ok {
		t.Fatal("rnd missing with a sweep config")
	}
	all, ok := SelectSpecs(specs, "all")
	if !ok || len(all) != len(specs) {
		t.Fatal("all selection wrong")
	}
}
