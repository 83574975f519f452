package randgen

import (
	"reflect"
	"testing"

	"bwshare/internal/cluster"
	"bwshare/internal/model"
	"bwshare/internal/predict"
	"bwshare/internal/replay"
	"bwshare/internal/sched"
	"bwshare/internal/schemelang"
	"bwshare/internal/trace"
)

func TestSchemeRespectsBounds(t *testing.T) {
	cfg := DefaultSchemeConfig()
	for seed := int64(0); seed < 30; seed++ {
		g, err := SchemeFromSeed(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if g.Len() < 1 || g.Len() > cfg.MaxComms {
			t.Fatalf("seed %d: %d comms outside [1, %d]", seed, g.Len(), cfg.MaxComms)
		}
		out := map[int]int{}
		in := map[int]int{}
		for _, c := range g.Comms() {
			if int(c.Src) >= cfg.MaxNodes || int(c.Dst) >= cfg.MaxNodes || c.Src < 0 || c.Dst < 0 {
				t.Fatalf("seed %d: node out of range: %v", seed, c)
			}
			if c.Volume < cfg.MinVolume || c.Volume > cfg.MaxVolume {
				t.Fatalf("seed %d: volume %g outside [%g, %g]", seed, c.Volume, cfg.MinVolume, cfg.MaxVolume)
			}
			out[int(c.Src)]++
			in[int(c.Dst)]++
		}
		for n, d := range out {
			if d > cfg.MaxOut {
				t.Fatalf("seed %d: node %d out-degree %d > %d", seed, n, d, cfg.MaxOut)
			}
		}
		for n, d := range in {
			if d > cfg.MaxIn {
				t.Fatalf("seed %d: node %d in-degree %d > %d", seed, n, d, cfg.MaxIn)
			}
		}
	}
}

func TestSchemeDeterministic(t *testing.T) {
	cfg := DefaultSchemeConfig()
	a, err := Schemes(7, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schemes(7, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if schemelang.Format(a[i]) != schemelang.Format(b[i]) {
			t.Fatalf("scheme %d differs between identical seeds", i)
		}
	}
	// A prefix of a longer run must match: one generator is drawn from
	// sequentially.
	c, err := Schemes(7, 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if schemelang.Format(a[i]) != schemelang.Format(c[i]) {
			t.Fatalf("scheme %d changes when n grows", i)
		}
	}
	d, err := Schemes(8, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if schemelang.Format(a[i]) != schemelang.Format(d[i]) {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical scheme sequences")
	}
}

func TestSchemeDegreeSaturation(t *testing.T) {
	// Tight caps: 2 nodes, degree 1 each way, but up to 8 comms
	// requested. The generator must stop at the cap, not loop or fail.
	cfg := SchemeConfig{
		MinNodes: 2, MaxNodes: 2,
		MinComms: 8, MaxComms: 8,
		MaxOut: 1, MaxIn: 1,
		MinVolume: 1e6, MaxVolume: 1e6,
	}
	g, err := SchemeFromSeed(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() < 1 || g.Len() > 2 {
		t.Fatalf("expected 1..2 comms under saturated caps, got %d", g.Len())
	}
}

func TestSchemeConfigValidation(t *testing.T) {
	bad := []SchemeConfig{
		{MinNodes: 1, MaxNodes: 4, MinComms: 1, MaxComms: 2, MaxOut: 1, MaxIn: 1, MinVolume: 1, MaxVolume: 2},
		{MinNodes: 4, MaxNodes: 2, MinComms: 1, MaxComms: 2, MaxOut: 1, MaxIn: 1, MinVolume: 1, MaxVolume: 2},
		{MinNodes: 2, MaxNodes: 4, MinComms: 0, MaxComms: 2, MaxOut: 1, MaxIn: 1, MinVolume: 1, MaxVolume: 2},
		{MinNodes: 2, MaxNodes: 4, MinComms: 1, MaxComms: 2, MaxOut: 0, MaxIn: 1, MinVolume: 1, MaxVolume: 2},
		{MinNodes: 2, MaxNodes: 4, MinComms: 1, MaxComms: 2, MaxOut: 1, MaxIn: 1, MinVolume: 0, MaxVolume: 2},
		{MinNodes: 2, MaxNodes: 4, MinComms: 1, MaxComms: 2, MaxOut: 1, MaxIn: 1, MinVolume: 3, MaxVolume: 2},
	}
	for i, cfg := range bad {
		if _, err := SchemeFromSeed(1, cfg); err == nil {
			t.Errorf("config %d: expected validation error", i)
		}
	}
}

func TestTraceDeterministicAndValid(t *testing.T) {
	cfg := DefaultTraceConfig()
	a, err := TraceFromSeed(11, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TraceFromSeed(11, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different traces")
	}
	if a.NumTasks() < cfg.MinTasks || a.NumTasks() > cfg.MaxTasks {
		t.Fatalf("task count %d outside [%d, %d]", a.NumTasks(), cfg.MinTasks, cfg.MaxTasks)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, task := range a.Tasks {
		for _, ev := range task {
			if ev.Kind == trace.Barrier {
				t.Fatal("random trace contains a barrier")
			}
		}
	}
}

// TestTraceReplays drives generated traces and composed workloads
// through the real replay driver on a model engine: the rendezvous-safe
// round construction must never deadlock.
func TestTraceReplays(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.Rounds = 6
	for seed := int64(0); seed < 8; seed++ {
		tr, err := WorkloadFromSeed(seed, 2, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		clu := cluster.Default(tr.NumTasks())
		place, err := sched.Place("rrn", clu, tr.NumTasks(), 1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		e, err := predict.NewEngine(predict.Spec{Model: model.NewGigE(), Ref: 1e8})
		if err != nil {
			t.Fatal(err)
		}
		res, err := replay.Run(e, clu, place, tr)
		if err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		if res.Makespan <= 0 {
			t.Fatalf("seed %d: non-positive makespan %g", seed, res.Makespan)
		}
	}
}

func TestTraceConfigValidation(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.MinTasks = 1
	if _, err := TraceFromSeed(1, cfg); err == nil {
		t.Error("expected error for MinTasks < 2")
	}
	cfg = DefaultTraceConfig()
	cfg.Rounds = 0
	if _, err := TraceFromSeed(1, cfg); err == nil {
		t.Error("expected error for Rounds < 1")
	}
	if _, err := WorkloadFromSeed(1, 0, DefaultTraceConfig()); err == nil {
		t.Error("expected error for napps < 1")
	}
}
