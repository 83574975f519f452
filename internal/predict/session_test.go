package predict_test

import (
	"testing"

	"bwshare/internal/core"
	"bwshare/internal/graph"
	"bwshare/internal/predict"
	"bwshare/internal/randgen"
	"bwshare/internal/schemes"
)

// TestSessionMatchesOneShot drives one reused Session across every
// catalog scheme and model and checks each prediction against a fresh
// one-shot call: scratch reuse must never leak state between schemes.
func TestSessionMatchesOneShot(t *testing.T) {
	for _, name := range predict.ModelNames() {
		m, sub, err := predict.LookupModel(name)
		if err != nil {
			t.Fatal(err)
		}
		ref := sub.RefRate()
		sess := predict.NewSession(m, ref)
		for _, sn := range schemes.Names() {
			g, _ := schemes.Named(sn)
			got := sess.Times(g)
			want := predict.Times(g, m, ref)
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d times, want %d", name, sn, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s/%s comm %d: session %g != one-shot %g", name, sn, i, got[i], want[i])
				}
			}
			gotS := append([]float64(nil), sess.StaticTimes(g)...)
			wantS := predict.StaticTimes(g, m, ref)
			for i := range wantS {
				if gotS[i] != wantS[i] {
					t.Errorf("%s/%s comm %d: static %g != %g", name, sn, i, gotS[i], wantS[i])
				}
			}
		}
	}
}

func TestLookupModelAliasAndError(t *testing.T) {
	m, _, err := predict.LookupModel("ib")
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := predict.LookupModel("infiniband")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != m2.Name() {
		t.Errorf("ib alias resolves to %q, want %q", m.Name(), m2.Name())
	}
	if _, _, err := predict.LookupModel("nope"); err == nil {
		t.Error("unknown model should error")
	}
}

// TestLookupSubstrate: the three simulated networks resolve, "ib" is
// InfiniBand, and anything else — the baseline models included — fails
// with the list of valid names.
func TestLookupSubstrate(t *testing.T) {
	for name, want := range map[string]string{"gige": "gige", "myrinet": "myrinet", "infiniband": "infiniband", "ib": "infiniband"} {
		e, err := predict.LookupSubstrate(name)
		if err != nil || e.Name() != want {
			t.Errorf("%s: %v, %v; want substrate %q", name, e, err, want)
		}
	}
	for _, name := range []string{"kimlee", "linear", "nope"} {
		_, err := predict.LookupSubstrate(name)
		if want := `unknown substrate "` + name + `" (want gige, myrinet or infiniband)`; err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", name, err, want)
		}
	}
}

// countingModel counts Penalties calls: one per engine event that
// re-scores a component. It embeds core.Model, so it hides the wrapped
// model's PenaltiesInto and the allocator calls Penalties.
type countingModel struct {
	core.Model
	calls int
}

func (m *countingModel) Penalties(g *graph.Graph) []float64 {
	m.calls++
	return m.Model.Penalties(g)
}

// TestSessionTimesAllocsPerEvent pins the steady-state allocations of a
// progressive prediction at zero for the models with PenaltiesInto:
// the session rebuilds the touched components' conflict graph and
// scores it in allocator-owned scratch. A wrapper that overrides only
// Penalties still sees every model evaluation.
func TestSessionTimesAllocsPerEvent(t *testing.T) {
	g, err := randgen.SchemeFromSeed(14, randgen.SchemeConfig{
		MinNodes: 16, MaxNodes: 16, MinComms: 48, MaxComms: 48,
		MaxOut: 5, MaxIn: 5, MinVolume: 1e6, MaxVolume: 20e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gige", "infiniband", "kimlee", "linear"} {
		m, sub, err := predict.LookupModel(name)
		if err != nil {
			t.Fatal(err)
		}
		sess := predict.NewSession(m, sub.RefRate())
		sess.Times(g) // size the scratch
		if allocs := testing.AllocsPerRun(10, func() { sess.Times(g) }); allocs != 0 {
			t.Errorf("%s: %g allocs per prediction of %d flows, want 0", name, allocs, g.Len())
		}

		cm := &countingModel{Model: m}
		wrapped := predict.NewSession(cm, sub.RefRate())
		want := append([]float64(nil), sess.Times(g)...)
		got := wrapped.Times(g)
		if cm.calls < 2 {
			t.Fatalf("%s: the wrapper saw %d model evaluations per prediction", name, cm.calls)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s comm %d: wrapped %.17g, bare %.17g", name, i, got[i], want[i])
			}
		}
	}
}
