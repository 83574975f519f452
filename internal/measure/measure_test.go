package measure

import (
	"math"
	"testing"

	"bwshare/internal/core"
	"bwshare/internal/graph"
	"bwshare/internal/model"
	"bwshare/internal/netsim/gige"
	"bwshare/internal/netsim/myrinet"
	"bwshare/internal/predict"
	"bwshare/internal/schemes"
)

func TestRefRateMatchesEngineClaim(t *testing.T) {
	engines := []core.Engine{
		gige.New(gige.DefaultConfig()),
		myrinet.New(myrinet.DefaultConfig()),
	}
	for _, e := range engines {
		got := RefRate(e, 20e6)
		if math.Abs(got-e.RefRate()) > 0.01*e.RefRate() {
			t.Errorf("%s: measured %g vs declared %g", e.Name(), got, e.RefRate())
		}
	}
}

func TestRunSingleCommPenaltyOne(t *testing.T) {
	r := Run(gige.New(gige.DefaultConfig()), schemes.Fig2(1))
	if math.Abs(r.Penalties[0]-1) > 1e-9 {
		t.Fatalf("penalty = %g, want 1", r.Penalties[0])
	}
}

// TestRunOnPredictEngine: measure works identically on model-driven
// engines, which is how predicted penalties are produced with the same
// benchmark protocol.
func TestRunOnPredictEngine(t *testing.T) {
	e, err := predict.NewEngine(predict.Spec{Model: model.NewMyrinet(), Ref: 2e8})
	if err != nil {
		t.Fatal(err)
	}
	r := Run(e, schemes.Fig2(3))
	for i, p := range r.Penalties {
		if math.Abs(p-3) > 1e-9 {
			t.Errorf("penalty[%d] = %g, want 3 (Myrinet model on a 3-star)", i, p)
		}
	}
}

// TestPenaltiesScaleFreeInVolume: penalties are ratios; doubling all
// volumes must not change them (fluid engines are exactly linear).
func TestPenaltiesScaleFreeInVolume(t *testing.T) {
	e := gige.New(gige.DefaultConfig())
	small := Run(e, schemes.Star(3, 10e6))
	big := Run(e, schemes.Star(3, 20e6))
	for i := range small.Penalties {
		if math.Abs(small.Penalties[i]-big.Penalties[i]) > 1e-9 {
			t.Errorf("penalty[%d] changed with volume: %g vs %g",
				i, small.Penalties[i], big.Penalties[i])
		}
	}
}

// TestEngineLeftClean: Run resets the engine afterwards so it can be
// reused immediately.
func TestEngineLeftClean(t *testing.T) {
	e := gige.New(gige.DefaultConfig())
	Run(e, schemes.Fig2(5))
	if e.Now() != 0 {
		t.Fatalf("engine frontier = %g after Run, want 0", e.Now())
	}
	id := e.StartFlow(0, 1, 1e6, 0)
	if id != 0 {
		t.Fatalf("flow id = %d after Run, want 0", id)
	}
}

type unresettable struct{ core.Engine }

func (unresettable) Name() string { return "raw" }
func (unresettable) StartFlow(src, dst graph.NodeID, b, n float64) int {
	return 0
}
func (unresettable) Advance(limit float64) ([]core.Completion, float64) { return nil, limit }
func (unresettable) RefRate() float64                                   { return 1 }

func TestNonResettablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-resettable engine")
		}
	}()
	RefRate(unresettable{}, 1)
}
