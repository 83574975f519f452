package netsim

import (
	"math"
	"testing"

	"bwshare/internal/graph"
)

// Tests for the water-fill's numeric edges and safety valves, run against
// both the dense and the reference implementation (they must agree).

type fillFunc func(flows []*Flow, flowCap float64, senderCap, recvCap map[graph.NodeID]float64, defSend, defRecv float64)

var fillImpls = []struct {
	name string
	fill fillFunc
}{
	{"opt", waterFill},
	{"ref", referenceWaterFill},
}

func caps(pairs ...float64) map[graph.NodeID]float64 {
	m := make(map[graph.NodeID]float64, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		m[graph.NodeID(pairs[i])] = pairs[i+1]
	}
	return m
}

// TestWaterFillEmpty: empty and nil flow slices are no-ops, for both
// fill implementations and both allocators.
func TestWaterFillEmpty(t *testing.T) {
	for _, impl := range fillImpls {
		impl.fill(nil, 0.75, nil, nil, 1, 1)
		impl.fill([]*Flow{}, 0.75, nil, nil, 1, 1)
	}
	cfg := CoupledConfig{LineRate: 1, FlowCap: 1, RxCap: 1}
	(&denseCoupled{Cfg: cfg}).Allocate(nil)
	(&denseCoupled{Cfg: cfg}).Allocate([]*Flow{})
	(&coupledOracle{Cfg: cfg}).Allocate(nil)
}

// TestWaterFillZeroCapacitySender: a sender with zero capacity freezes
// its flows at rate 0; flows of healthy senders are unaffected.
func TestWaterFillZeroCapacitySender(t *testing.T) {
	for _, impl := range fillImpls {
		t.Run(impl.name, func(t *testing.T) {
			flows := []*Flow{
				{ID: 0, Src: 0, Dst: 10},
				{ID: 1, Src: 0, Dst: 11},
				{ID: 2, Src: 1, Dst: 12},
			}
			impl.fill(flows, 0.75, caps(0, 0), nil, 1, 1)
			if flows[0].Rate != 0 || flows[1].Rate != 0 {
				t.Errorf("zero-capacity sender flows got rates %g, %g; want 0", flows[0].Rate, flows[1].Rate)
			}
			if math.Abs(flows[2].Rate-0.75) > 1e-9 {
				t.Errorf("healthy flow rate = %g, want 0.75 (flow cap)", flows[2].Rate)
			}
		})
	}
}

// TestWaterFillZeroCapacityReceiver: symmetric for a dead receiver.
func TestWaterFillZeroCapacityReceiver(t *testing.T) {
	for _, impl := range fillImpls {
		t.Run(impl.name, func(t *testing.T) {
			flows := []*Flow{
				{ID: 0, Src: 0, Dst: 10},
				{ID: 1, Src: 1, Dst: 10},
				{ID: 2, Src: 2, Dst: 11},
			}
			impl.fill(flows, 0.75, nil, caps(10, 0), 1, 1)
			if flows[0].Rate != 0 || flows[1].Rate != 0 {
				t.Errorf("flows into dead receiver got rates %g, %g; want 0", flows[0].Rate, flows[1].Rate)
			}
			if math.Abs(flows[2].Rate-0.75) > 1e-9 {
				t.Errorf("healthy flow rate = %g, want 0.75", flows[2].Rate)
			}
		})
	}
}

// TestWaterFillAllConstraintsUnbounded: with every headroom infinite the
// increment is +Inf and the infinite-headroom break leaves all rates 0
// rather than looping forever or producing Inf rates.
func TestWaterFillAllConstraintsUnbounded(t *testing.T) {
	inf := math.Inf(1)
	for _, impl := range fillImpls {
		t.Run(impl.name, func(t *testing.T) {
			flows := []*Flow{{ID: 0, Src: 0, Dst: 1}, {ID: 1, Src: 2, Dst: 3}}
			impl.fill(flows, inf, nil, nil, inf, inf)
			for _, f := range flows {
				if f.Rate != 0 {
					t.Errorf("flow %d rate = %g, want 0 (unbounded problem)", f.ID, f.Rate)
				}
			}
		})
	}
}

// TestWaterFillNonProgressValve hits the non-progress safety valve: a
// subnormal sender capacity shared by three flows yields per-flow
// headroom left/3 that rounds to zero, so the round's increment is 0 —
// yet the saturation test left <= relEps*orig fails because relEps*orig
// underflows to exactly 0 while left stays positive. No flow freezes, so
// without the valve the filling loop would never terminate; with it,
// the fill returns with all rates 0.
func TestWaterFillNonProgressValve(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64 // 2^-1074
	if tiny/3 != 0 {
		t.Fatalf("test premise broken: SmallestNonzeroFloat64/3 = %g, want 0", tiny/3)
	}
	if tiny*1e-9 != 0 {
		t.Fatalf("test premise broken: relEps*orig = %g, want underflow to 0", tiny*1e-9)
	}
	for _, impl := range fillImpls {
		t.Run(impl.name, func(t *testing.T) {
			flows := []*Flow{
				{ID: 0, Src: 0, Dst: 10},
				{ID: 1, Src: 0, Dst: 11},
				{ID: 2, Src: 0, Dst: 12},
			}
			impl.fill(flows, 1, caps(0, tiny), nil, 1, 1)
			for _, f := range flows {
				if f.Rate != 0 {
					t.Errorf("flow %d rate = %g, want 0 (valve exit)", f.ID, f.Rate)
				}
			}
		})
	}
}
