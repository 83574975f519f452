package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bwshare/internal/graph"
)

func cfg(coupling, threshold float64) CoupledConfig {
	return CoupledConfig{
		LineRate: 1, FlowCap: 0.75, RxCap: 1,
		Coupling: coupling, CouplingThreshold: threshold,
	}
}

func alloc(c CoupledConfig, flows []*Flow) {
	(&denseCoupled{Cfg: c}).Allocate(flows)
}

// TestCouplingBelowThresholdIsMaxMin: a mildly oversubscribed receiver
// (rho 1.08) must not trigger sender coupling when the threshold is 1.7.
func TestCouplingBelowThresholdIsMaxMin(t *testing.T) {
	flows := []*Flow{
		{ID: 0, Src: 0, Dst: 1}, {ID: 1, Src: 0, Dst: 2}, {ID: 2, Src: 0, Dst: 3},
		{ID: 3, Src: 4, Dst: 2},
	}
	alloc(cfg(1, 1.7), flows)
	third := 1.0 / 3.0
	for i := 0; i < 3; i++ {
		if math.Abs(flows[i].Rate-third) > 1e-9 {
			t.Errorf("flow %d rate %.4f, want 1/3 (no coupling)", i, flows[i].Rate)
		}
	}
	if want := 1 - third; math.Abs(flows[3].Rate-want) > 1e-9 {
		t.Errorf("flow 3 rate %.4f, want %.4f", flows[3].Rate, want)
	}
}

// TestCouplingAboveThresholdStallsSender: scheme S5's receiver overload
// (rho = 1.833) throttles the whole star sender.
func TestCouplingAboveThresholdStallsSender(t *testing.T) {
	flows := []*Flow{
		{ID: 0, Src: 0, Dst: 1}, {ID: 1, Src: 0, Dst: 2}, {ID: 2, Src: 0, Dst: 3},
		{ID: 3, Src: 4, Dst: 2}, {ID: 4, Src: 5, Dst: 2},
	}
	alloc(cfg(1, 1.7), flows)
	// Sender 0 capacity drops to 1/rho = 0.5455; its three flows share it.
	want := (1 / 1.8333333333333333) / 3
	for i := 0; i < 3; i++ {
		if math.Abs(flows[i].Rate-want) > 1e-3 {
			t.Errorf("flow %d rate %.4f, want ~%.4f (paused sender)", i, flows[i].Rate, want)
		}
	}
	// The flow to the idle receiver 1 is equally throttled - the pause
	// anomaly of Figure 2 S5.
	if flows[0].Rate > 0.2 {
		t.Errorf("uncontested flow kept rate %.4f; pause coupling missing", flows[0].Rate)
	}
}

// TestCouplingZeroDisables: kappa = 0 always reduces to max-min.
func TestCouplingZeroDisables(t *testing.T) {
	mk := func() []*Flow {
		return []*Flow{
			{ID: 0, Src: 0, Dst: 1}, {ID: 1, Src: 0, Dst: 2}, {ID: 2, Src: 0, Dst: 3},
			{ID: 3, Src: 4, Dst: 2}, {ID: 4, Src: 5, Dst: 2},
		}
	}
	coupled := mk()
	plain := mk()
	alloc(cfg(0, 1), coupled)
	waterFillChecked(t, plain, 0.75, nil, nil, 1, 1)
	for i := range coupled {
		if math.Abs(coupled[i].Rate-plain[i].Rate) > 1e-9 {
			t.Errorf("flow %d: kappa=0 gave %.4f, max-min %.4f", i, coupled[i].Rate, plain[i].Rate)
		}
	}
}

// TestCoupledFeasibility: property test - for random flow sets, coupled
// allocations never exceed flow caps or line rates and are nonnegative,
// at any coupling strength.
func TestCoupledFeasibility(t *testing.T) {
	prop := func(seed int64, kRaw, thRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		kappa := float64(kRaw%101) / 100
		threshold := 1 + float64(thRaw%100)/100
		n := rng.Intn(10) + 1
		flows := make([]*Flow, n)
		for i := range flows {
			src := graph.NodeID(rng.Intn(4))
			dst := graph.NodeID(rng.Intn(4) + 4)
			flows[i] = &Flow{ID: i, Src: src, Dst: dst, Remaining: 1}
		}
		c := cfg(kappa, threshold)
		alloc(c, flows)
		sndSum := map[graph.NodeID]float64{}
		for _, f := range flows {
			if f.Rate < 0 || f.Rate > c.FlowCap+1e-9 {
				return false
			}
			sndSum[f.Src] += f.Rate
		}
		for _, s := range sndSum {
			if s > c.LineRate+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestCouplingMonotoneInKappa: stronger coupling never speeds up the
// flows of an overloaded sender.
func TestCouplingMonotoneInKappa(t *testing.T) {
	rates := func(kappa float64) []float64 {
		flows := []*Flow{
			{ID: 0, Src: 0, Dst: 1}, {ID: 1, Src: 0, Dst: 2},
			{ID: 2, Src: 4, Dst: 2}, {ID: 3, Src: 5, Dst: 2},
		}
		alloc(cfg(kappa, 1), flows)
		out := make([]float64, len(flows))
		for i, f := range flows {
			out[i] = f.Rate
		}
		return out
	}
	prev := rates(0)
	for _, k := range []float64{0.25, 0.5, 0.75, 1} {
		cur := rates(k)
		if cur[0] > prev[0]+1e-9 {
			t.Errorf("kappa %.2f: uncontested flow sped up: %.4f > %.4f", k, cur[0], prev[0])
		}
		prev = cur
	}
}
