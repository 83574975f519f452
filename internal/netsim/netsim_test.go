package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"bwshare/internal/core"
	"bwshare/internal/graph"
)

// constAlloc gives every flow the same fixed rate.
type constAlloc struct{ rate float64 }

func (a constAlloc) Allocate(flows []*Flow) {
	for _, f := range flows {
		f.Rate = a.rate
	}
}

func TestFluidSingleFlow(t *testing.T) {
	e := NewFluidEngine("test", 100, constAlloc{rate: 100})
	e.StartFlow(0, 1, 1000, 0)
	done, now := e.Advance(core.Inf)
	if len(done) != 1 || math.Abs(done[0].Time-10) > 1e-12 {
		t.Fatalf("done = %v, want one completion at t=10", done)
	}
	if now != 10 {
		t.Fatalf("frontier = %g, want 10", now)
	}
}

func TestFluidAdvanceLimit(t *testing.T) {
	e := NewFluidEngine("test", 100, constAlloc{rate: 100})
	e.StartFlow(0, 1, 1000, 0)
	done, now := e.Advance(4)
	if len(done) != 0 || now != 4 {
		t.Fatalf("Advance(4) = (%v, %g), want (none, 4)", done, now)
	}
	done, now = e.Advance(core.Inf)
	if len(done) != 1 || math.Abs(now-10) > 1e-12 {
		t.Fatalf("completion = %v at %g, want t=10", done, now)
	}
}

func TestFluidSimultaneousCompletions(t *testing.T) {
	e := NewFluidEngine("test", 100, constAlloc{rate: 100})
	e.StartFlow(0, 1, 500, 0)
	e.StartFlow(2, 3, 500, 0)
	done, _ := e.Advance(core.Inf)
	if len(done) != 2 {
		t.Fatalf("got %d completions in the first batch, want 2", len(done))
	}
}

func TestFluidLateStart(t *testing.T) {
	e := NewFluidEngine("test", 100, constAlloc{rate: 100})
	e.StartFlow(0, 1, 1000, 0)
	e.Advance(5) // frontier at 5, no completion yet
	e.StartFlow(2, 3, 100, 5)
	done, _ := e.Advance(core.Inf)
	if len(done) != 1 || math.Abs(done[0].Time-6) > 1e-12 {
		t.Fatalf("first completion = %v, want the late flow at t=6", done)
	}
	done, _ = e.Advance(core.Inf)
	if len(done) != 1 || math.Abs(done[0].Time-10) > 1e-12 {
		t.Fatalf("second completion = %v, want the long flow at t=10", done)
	}
}

func TestFluidStartBeforeFrontierPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := NewFluidEngine("test", 100, constAlloc{rate: 100})
	e.Advance(5)
	e.StartFlow(0, 1, 100, 1)
}

func TestFluidStartSkippingCompletionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := NewFluidEngine("test", 100, constAlloc{rate: 100})
	e.StartFlow(0, 1, 100, 0) // completes at t=1
	e.StartFlow(0, 1, 100, 2) // skips it
}

func TestFluidReset(t *testing.T) {
	e := NewFluidEngine("test", 100, constAlloc{rate: 100})
	e.StartFlow(0, 1, 1000, 0)
	e.Advance(core.Inf)
	e.Reset()
	if e.Now() != 0 {
		t.Fatalf("after Reset, Now = %g, want 0", e.Now())
	}
	id := e.StartFlow(0, 1, 100, 0)
	if id != 0 {
		t.Fatalf("flow ids should restart at 0 after Reset, got %d", id)
	}
}

func TestWaterFillTwoFlowsOneSender(t *testing.T) {
	flows := []*Flow{
		{ID: 0, Src: 0, Dst: 1},
		{ID: 1, Src: 0, Dst: 2},
	}
	waterFillChecked(t, flows, 0.75, nil, nil, 1, 1)
	for _, f := range flows {
		if math.Abs(f.Rate-0.5) > 1e-9 {
			t.Errorf("flow %d rate = %g, want 0.5 (sender fair share)", f.ID, f.Rate)
		}
	}
}

func TestWaterFillFlowCapBinds(t *testing.T) {
	flows := []*Flow{{ID: 0, Src: 0, Dst: 1}}
	waterFillChecked(t, flows, 0.75, nil, nil, 1, 1)
	if math.Abs(flows[0].Rate-0.75) > 1e-9 {
		t.Errorf("rate = %g, want flow cap 0.75", flows[0].Rate)
	}
}

func TestWaterFillReceiverContention(t *testing.T) {
	// Two senders into one receiver: receiver capacity splits fairly.
	flows := []*Flow{
		{ID: 0, Src: 0, Dst: 9},
		{ID: 1, Src: 1, Dst: 9},
	}
	waterFillChecked(t, flows, 0.75, nil, nil, 1, 1)
	for _, f := range flows {
		if math.Abs(f.Rate-0.5) > 1e-9 {
			t.Errorf("flow %d rate = %g, want 0.5 (receiver fair share)", f.ID, f.Rate)
		}
	}
}

func TestWaterFillAsymmetric(t *testing.T) {
	// Sender 0 has three flows (0.333 each); flow from sender 1 takes
	// the receiver's leftover up to its cap.
	flows := []*Flow{
		{ID: 0, Src: 0, Dst: 1},
		{ID: 1, Src: 0, Dst: 2},
		{ID: 2, Src: 0, Dst: 3},
		{ID: 3, Src: 4, Dst: 2},
	}
	waterFillChecked(t, flows, 0.75, nil, nil, 1, 1)
	third := 1.0 / 3.0
	for i := 0; i < 3; i++ {
		if math.Abs(flows[i].Rate-third) > 1e-9 {
			t.Errorf("flow %d rate = %g, want 1/3", i, flows[i].Rate)
		}
	}
	if want := 1 - third; math.Abs(flows[3].Rate-want) > 1e-9 {
		t.Errorf("flow 3 rate = %g, want %g (receiver leftover)", flows[3].Rate, want)
	}
}

// TestWaterFillFeasibility is a property-based test: for random small
// flow sets, the allocation never violates a sender capacity, receiver
// capacity or flow cap, and no rate is negative.
func TestWaterFillFeasibility(t *testing.T) {
	prop := func(srcs, dsts [8]uint8, n uint8) bool {
		k := int(n%8) + 1
		flows := make([]*Flow, k)
		for i := 0; i < k; i++ {
			s := graph.NodeID(srcs[i] % 4)
			d := graph.NodeID(dsts[i]%4) + 4 // disjoint sender/receiver sets
			flows[i] = &Flow{ID: i, Src: s, Dst: d}
		}
		waterFillChecked(t, flows, 0.75, nil, nil, 1, 1)
		sndSum := map[graph.NodeID]float64{}
		rcvSum := map[graph.NodeID]float64{}
		for _, f := range flows {
			if f.Rate < 0 || f.Rate > 0.75+1e-9 {
				return false
			}
			sndSum[f.Src] += f.Rate
			rcvSum[f.Dst] += f.Rate
		}
		for _, s := range sndSum {
			if s > 1+1e-9 {
				return false
			}
		}
		for _, r := range rcvSum {
			if r > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestWaterFillMaxMinOptimality: in a feasible max-min allocation, no
// flow can be strictly below another flow sharing one of its saturated
// constraints unless it is capped. Spot-check with a mixed scenario.
func TestWaterFillMaxMinOptimality(t *testing.T) {
	flows := []*Flow{
		{ID: 0, Src: 0, Dst: 1},
		{ID: 1, Src: 0, Dst: 2},
		{ID: 2, Src: 3, Dst: 2},
		{ID: 3, Src: 3, Dst: 4},
	}
	waterFillChecked(t, flows, 10, nil, nil, 1, 1)
	// Everything is symmetric: all should be 0.5.
	for _, f := range flows {
		if math.Abs(f.Rate-0.5) > 1e-9 {
			t.Errorf("flow %d rate = %g, want 0.5", f.ID, f.Rate)
		}
	}
}

// TestZeroRateDueFlowReaped is the stalled-flow regression test: a flow
// whose Remaining is already within completionEps but whose Rate is 0
// used to be invisible to nextCompletionTime (zero-rate flows "never
// finish"), so Advance never returned it and replay hung. It must now
// complete immediately at the frontier.
func TestZeroRateDueFlowReaped(t *testing.T) {
	e := NewFluidEngine("test", 1, constAlloc{rate: 0})
	e.StartFlow(0, 1, completionEps/2, 0)
	done, now := e.Advance(core.Inf)
	if len(done) != 1 || done[0].Time != 0 || now != 0 {
		t.Fatalf("Advance = (%v, %g), want one completion at t=0", done, now)
	}
}

// TestZeroRateDueFlowAmongActive: the due zero-rate flow is reaped even
// while ordinary flows keep the engine busy, and the ordinary flow
// still finishes at its own time.
func TestZeroRateDueFlowAmongActive(t *testing.T) {
	e := NewFluidEngine("test", 100, rateByID{0: 0, 1: 100})
	e.StartFlow(0, 1, completionEps/2, 0) // id 0: due, rate 0
	e.StartFlow(2, 3, 1000, 0)            // id 1: ordinary
	done, now := e.Advance(core.Inf)
	if len(done) != 1 || done[0].Flow != 0 || now != 0 {
		t.Fatalf("first Advance = (%v, %g), want flow 0 at t=0", done, now)
	}
	done, now = e.Advance(core.Inf)
	if len(done) != 1 || done[0].Flow != 1 || math.Abs(now-10) > 1e-12 {
		t.Fatalf("second Advance = (%v, %g), want flow 1 at t=10", done, now)
	}
}

// rateByID assigns rates per flow id (test helper).
type rateByID map[int]float64

func (a rateByID) Allocate(flows []*Flow) {
	for _, f := range flows {
		f.Rate = a[f.ID]
	}
}

// TestAdvanceReturnsEngineOwnedScratch: the completions slice is reused
// across Advance calls (the zero-alloc reap path), so two consecutive
// completion batches must come back in the same backing array.
func TestAdvanceReturnsEngineOwnedScratch(t *testing.T) {
	e := NewFluidEngine("test", 100, constAlloc{rate: 100})
	e.StartFlow(0, 1, 100, 0)
	done1, _ := e.Advance(core.Inf)
	if len(done1) != 1 {
		t.Fatalf("first batch = %v", done1)
	}
	first := done1[0]
	e.StartFlow(0, 1, 100, e.Now())
	done2, _ := e.Advance(core.Inf)
	if len(done2) != 1 {
		t.Fatalf("second batch = %v", done2)
	}
	if &done1[0] == &done2[0] && done1[0] == first {
		t.Fatal("scratch not reused and not overwritten — impossible state")
	}
	if &done1[0] != &done2[0] {
		t.Fatal("reap did not reuse the completions scratch")
	}
}

// TestReapSteadyStateZeroAllocs: a start/complete cycle on a warmed
// engine allocates nothing, including the completions slice.
func TestReapSteadyStateZeroAllocs(t *testing.T) {
	e := NewFluidEngine("test", 100, constAlloc{rate: 100})
	cycle := func() {
		e.StartFlow(0, 1, 100, e.Now())
		if done, _ := e.Advance(core.Inf); len(done) != 1 {
			t.Fatal("flow did not complete")
		}
	}
	cycle() // warm
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("event cycle allocates %.2f objects/op, want 0", avg)
	}
}

// TestFreeListBounded: completing (or resetting away) a huge transient
// flow population must not pin every Flow struct on the free list.
func TestFreeListBounded(t *testing.T) {
	e := NewFluidEngine("test", 100, constAlloc{rate: 100})
	const n = maxFreeFlows + 2000
	for i := 0; i < n; i++ {
		e.StartFlow(graph.NodeID(2*i), graph.NodeID(2*i+1), 100, 0)
	}
	if done, _ := e.Advance(core.Inf); len(done) != n {
		t.Fatalf("completed %d of %d flows", len(done), n)
	}
	if len(e.free) > maxFreeFlows {
		t.Fatalf("free list holds %d structs after reap, cap is %d", len(e.free), maxFreeFlows)
	}
	for i := 0; i < n; i++ {
		e.StartFlow(graph.NodeID(2*i), graph.NodeID(2*i+1), 100, e.Now())
	}
	e.Reset()
	if len(e.free) > maxFreeFlows {
		t.Fatalf("free list holds %d structs after Reset, cap is %d", len(e.free), maxFreeFlows)
	}
}
