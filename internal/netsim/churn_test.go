package netsim

import (
	"math"
	"testing"

	"bwshare/internal/core"
	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/measure"
	"bwshare/internal/randgen"
	"bwshare/internal/topology"
)

// Differential tests for the incremental component-scoped allocator:
// IncrementalAllocator must reproduce componentOracle — the retained
// map-based oracle that repartitions and refills every
// component on every call — bit for bit, across substrate configs,
// fabrics, and adversarial add/remove/barrier interleavings. Equality
// is exact (==), not a tolerance: the incremental path is required to
// compute the identical floating-point operations per component.

// churnFabrics are the fabrics of the churn acceptance matrix. The star
// and the small fat-tree keep their sizes small so random schemes
// exercise both intra- and inter-switch traffic; SwitchOf wraps
// out-of-range ids, which both sides share. The largest fat-tree
// (topology.MaxSwitches edge switches of one host each) puts every
// flow on two links and reserves 2·MaxSwitches link slots.
var churnFabrics = []struct {
	name string
	spec topology.Spec
}{
	{"crossbar", topology.Spec{}},
	{"star", topology.Spec{Kind: topology.Star, Switches: 4, HostsPerSwitch: 4, Place: topology.Block}},
	{"fattree", topology.Spec{Kind: topology.FatTree, Switches: 4, HostsPerSwitch: 4, Oversub: 2, Place: topology.RoundRobin}},
	{"fattree-4096x1", topology.Spec{Kind: topology.FatTree, Switches: topology.MaxSwitches, HostsPerSwitch: 1, Oversub: 1, Place: topology.Block}},
}

// churnSubstrates are the coupled substrate configs (gige-style full
// pause coupling, infiniband-style partial credit coupling).
var churnSubstrates = []struct {
	name string
	cfg  CoupledConfig
}{
	{"gige", CoupledConfig{LineRate: 125e6, FlowCap: 0.75 * 125e6, RxCap: 125e6, Coupling: 1, CouplingThreshold: 1.7}},
	{"infiniband", CoupledConfig{LineRate: 1000e6, FlowCap: 0.8625 * 1000e6, RxCap: 1.13 * 1000e6, Coupling: 0.65}},
}

// TestIncrementalEngineMatchesOracleSeededSchemes is the acceptance
// matrix: whole measure.Run completion times from an engine driving the
// incremental allocator equal the full-recompute oracle engine's
// exactly, over seeded random schemes x substrates x fabrics. The
// engine path exercises the observer callbacks, component caching,
// removal-triggered rebuilds and Flow struct recycling.
func TestIncrementalEngineMatchesOracleSeededSchemes(t *testing.T) {
	const seeds = 60
	schemes, err := randgen.Schemes(11, seeds, randgen.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range churnSubstrates {
		for _, fab := range churnFabrics {
			cfg := sub.cfg
			cfg.Topo = fab.spec
			inc := NewFluidEngine("inc", cfg.FlowCap, &IncrementalAllocator{Cfg: cfg})
			ref := NewFluidEngine("ref", cfg.FlowCap, &componentOracle{Cfg: cfg})
			for si, g := range schemes {
				ra := measure.Run(inc, g)
				rb := measure.Run(ref, g)
				for i := range ra.Times {
					if ra.Times[i] != rb.Times[i] {
						t.Fatalf("%s/%s scheme %d comm %d: inc time %.17g oracle %.17g",
							sub.name, fab.name, si, i, ra.Times[i], rb.Times[i])
					}
				}
			}
		}
	}
}

// TestIncrementalDirectMatchesOracle covers the standalone (engine-less)
// path: a direct Allocate call has no observer history and must fall
// back to a full component-scoped recompute with oracle-identical rates.
func TestIncrementalDirectMatchesOracle(t *testing.T) {
	schemes, err := randgen.Schemes(12, 60, randgen.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range churnSubstrates {
		for _, fab := range churnFabrics {
			cfg := sub.cfg
			cfg.Topo = fab.spec
			inc := &IncrementalAllocator{Cfg: cfg}
			ref := &componentOracle{Cfg: cfg}
			for si, g := range schemes {
				a := schemeFlows(t, g)
				b := schemeFlows(t, g)
				inc.Allocate(a)
				ref.Allocate(b)
				for i := range a {
					if a[i].Rate != b[i].Rate {
						t.Fatalf("%s/%s scheme %d flow %d: inc %.17g oracle %.17g",
							sub.name, fab.name, si, i, a[i].Rate, b[i].Rate)
					}
				}
			}
		}
	}
}

// churnHarness drives an incremental allocator through the observer
// protocol (as a FluidEngine would) alongside a mirrored flow set for
// the oracle, keeping both slices in identical order.
type churnHarness struct {
	inc    *IncrementalAllocator
	oracle *componentOracle
	a, b   []*Flow // inc / oracle mirrors, same order
	nextID int
}

func newChurnHarness(cfg CoupledConfig) *churnHarness {
	h := &churnHarness{
		inc:    &IncrementalAllocator{Cfg: cfg},
		oracle: &componentOracle{Cfg: cfg},
	}
	h.inc.ActiveSetReset() // arm tracking, as NewFluidEngine does
	return h
}

func (h *churnHarness) add(src, dst graph.NodeID, vol float64) {
	fa := &Flow{ID: h.nextID, Src: src, Dst: dst, Remaining: vol}
	fb := &Flow{ID: h.nextID, Src: src, Dst: dst, Remaining: vol}
	h.nextID++
	h.a = append(h.a, fa)
	h.b = append(h.b, fb)
	h.inc.FlowStarted(fa)
}

// remove deletes index i preserving order, exactly like the engine's
// reap compaction.
func (h *churnHarness) remove(i int) {
	h.inc.FlowFinished(h.a[i])
	h.a = append(h.a[:i], h.a[i+1:]...)
	h.b = append(h.b[:i], h.b[i+1:]...)
}

func (h *churnHarness) check(t *testing.T, ctx string) {
	t.Helper()
	h.inc.Allocate(h.a)
	h.oracle.Allocate(h.b)
	for i := range h.a {
		if h.a[i].Rate != h.b[i].Rate {
			t.Fatalf("%s: flow %d (%d->%d): inc %.17g oracle %.17g",
				ctx, h.a[i].ID, h.a[i].Src, h.a[i].Dst, h.a[i].Rate, h.b[i].Rate)
		}
	}
}

// TestIncrementalAdversarialChurn is the property test: random
// interleavings of flow adds, removes and barriers (drain-everything)
// on a small node pool — so components merge and split constantly —
// must keep the incremental rates bit-identical to the full-recompute
// oracle after every single event.
func TestIncrementalAdversarialChurn(t *testing.T) {
	const (
		seedCount = 12
		ops       = 250
		nodes     = 12
	)
	for _, sub := range churnSubstrates {
		for _, fab := range churnFabrics {
			cfg := sub.cfg
			cfg.Topo = fab.spec
			for seed := int64(0); seed < seedCount; seed++ {
				rng := randgen.NewRand(900 + seed)
				h := newChurnHarness(cfg)
				for op := 0; op < ops; op++ {
					switch r := rng.Float64(); {
					case r < 0.52 || len(h.a) == 0:
						src := graph.NodeID(rng.IntN(nodes))
						dst := graph.NodeID(rng.IntN(nodes - 1))
						if dst >= src {
							dst++
						}
						h.add(src, dst, 1e6+rng.Float64()*19e6)
					case r < 0.95:
						h.remove(rng.IntN(len(h.a)))
					default: // barrier: everything drains at once
						for len(h.a) > 0 {
							h.remove(len(h.a) - 1)
						}
					}
					if len(h.a) > 0 {
						h.check(t, sub.name+"/"+fab.name)
					}
				}
			}
		}
	}
}

// TestIncrementalCachesCleanComponents is a white-box check that the
// incremental allocator really skips untouched components: rates of a
// clean component survive an event in a disjoint component untouched,
// including their exact bits, without that component being refilled.
func TestIncrementalCachesCleanComponents(t *testing.T) {
	cfg := churnSubstrates[0].cfg
	h := newChurnHarness(cfg)
	// Component A: two flows sharing sender 0. Component B: flows on
	// disjoint nodes 4..7.
	h.add(0, 1, 10e6)
	h.add(0, 2, 10e6)
	h.add(4, 5, 10e6)
	h.add(6, 7, 10e6)
	h.check(t, "seed state")
	aRate0, aRate1 := h.a[0].Rate, h.a[1].Rate
	// Poison component A's rates to sentinel values: if the next event
	// (which only touches B) refilled A, the sentinels would be
	// overwritten; if it correctly caches A, they must survive.
	h.a[0].Rate, h.a[1].Rate = -1, -2
	h.remove(3) // departs component B
	h.inc.Allocate(h.a)
	if h.a[0].Rate != -1 || h.a[1].Rate != -2 {
		t.Fatalf("component A was refilled by an event in component B (rates %g, %g)",
			h.a[0].Rate, h.a[1].Rate)
	}
	// Restore and confirm the cached values are what a full recompute
	// would produce.
	h.a[0].Rate, h.a[1].Rate = aRate0, aRate1
	h.oracle.Allocate(h.b)
	for i := range h.a {
		if h.a[i].Rate != h.b[i].Rate {
			t.Fatalf("cached rate of flow %d diverged: inc %.17g oracle %.17g",
				h.a[i].ID, h.a[i].Rate, h.b[i].Rate)
		}
	}
}

// TestIncrementalSteadyStateZeroAllocs: the PR-5 acceptance criterion —
// a warmed-up engine driving the incremental allocator runs a full
// churn cycle (job arrival, allocation, drain to the job's completion)
// without any heap allocation, including the reap path.
func TestIncrementalSteadyStateZeroAllocs(t *testing.T) {
	cfg := churnSubstrates[0].cfg
	e := NewFluidEngine("inc", cfg.FlowCap, &IncrementalAllocator{Cfg: cfg})
	const jobs = 8
	startJob := func(j int) {
		base := graph.NodeID(4 * j)
		for k := 0; k < 4; k++ {
			e.StartFlow(base+graph.NodeID(k), base+graph.NodeID((k+1)%4), 20e6, e.Now())
		}
	}
	// Stagger the initial arrivals so exactly one job (the oldest)
	// completes per churn cycle from then on.
	for j := 0; j < jobs; j++ {
		e.Advance(float64(j) * 1e-3)
		startJob(j)
	}
	job := jobs
	cycle := func() {
		startJob(job % jobs)
		job++
		for got := 0; got < 4; {
			done, _ := e.Advance(1e300)
			if len(done) == 0 {
				t.Fatal("engine stalled mid-churn")
			}
			got += len(done)
		}
	}
	// Warm: run a couple of full job generations to settle every pool.
	for i := 0; i < 3*jobs; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("churn cycle allocates %.2f objects/op in steady state, want 0", avg)
	}
}

// TestIncrementalDoesNotRetainFlowPointers: the Allocator contract
// forbids keeping Flow pointers past Allocate — retained pointers
// would pin structs the engine's free-list cap releases to the GC. Only
// the slot lists hold live flows, and an ActiveSetReset with flows
// still live drops those too.
func TestIncrementalDoesNotRetainFlowPointers(t *testing.T) {
	h := newChurnHarness(churnSubstrates[0].cfg)
	for i := 0; i < 8; i++ {
		h.add(graph.NodeID(2*i), graph.NodeID(2*i+1), 10e6)
	}
	h.check(t, "seed state")
	for i, f := range h.inc.dirty[:cap(h.inc.dirty)] {
		if f != nil {
			t.Fatalf("dirty[%d] retains a Flow pointer after Allocate", i)
		}
	}
	h.inc.ActiveSetReset()
	x := &h.inc.idx
	for s, l := range x.on[:cap(x.on)] {
		for i, f := range l[:cap(l)] {
			if f != nil {
				t.Fatalf("slot %d list[%d] retains a Flow pointer after ActiveSetReset", s, i)
			}
		}
	}
}

// TestIncrementalShedsOversizedState: a run that addressed a huge node
// id (or a huge flow count) must not pin the inflated slot index past
// the next engine reset, mirroring the fillScratch shedding cap.
func TestIncrementalShedsOversizedState(t *testing.T) {
	huge := graph.NodeID(maxPooledScratchLen + 10)
	a := &IncrementalAllocator{Cfg: churnSubstrates[0].cfg}
	a.ActiveSetReset()
	f := &Flow{ID: 0, Src: huge, Dst: 1, Remaining: 1e6}
	a.FlowStarted(f)
	a.Allocate([]*Flow{f})
	if len(a.idx.snd.dense) <= maxPooledScratchLen {
		t.Fatalf("test setup: slot table not inflated (len %d)", len(a.idx.snd.dense))
	}
	a.FlowFinished(f)
	a.ActiveSetReset()
	if len(a.idx.snd.dense) != 0 || len(a.idx.rcv.dense) != 0 {
		t.Fatalf("reset kept inflated slot tables (snd %d, rcv %d)", len(a.idx.snd.dense), len(a.idx.rcv.dense))
	}
	// A normally sized run keeps its capacity across resets (the
	// zero-allocation steady state depends on it).
	g := &Flow{ID: 1, Src: 3, Dst: 4, Remaining: 1e6}
	a.FlowStarted(g)
	a.Allocate([]*Flow{g})
	snd := len(a.idx.snd.dense)
	a.FlowFinished(g)
	a.ActiveSetReset()
	if cap(a.idx.snd.dense) < snd {
		t.Fatal("reset shed a normally sized slot table")
	}
}

// arrival is one staggered StartFlow in an engine-driven differential
// test.
type arrival struct {
	at       float64
	src, dst graph.NodeID
	vol      float64
}

// runCollect drives an engine through the arrival schedule to drain and
// returns every flow's completion time keyed by id.
func runCollect(t *testing.T, e *FluidEngine, arrivals []arrival) map[int]float64 {
	t.Helper()
	out := make(map[int]float64, len(arrivals))
	record := func(done []core.Completion) {
		for _, c := range done {
			out[c.Flow] = c.Time
		}
	}
	for _, arr := range arrivals {
		for e.Now() < arr.at {
			done, _ := e.Advance(arr.at)
			record(done)
		}
		e.StartFlow(arr.src, arr.dst, arr.vol, arr.at)
	}
	for len(out) < len(arrivals) {
		done, now := e.Advance(core.Inf)
		record(done)
		if len(done) == 0 && math.IsInf(now, 1) {
			break
		}
	}
	return out
}

// TestHugeNodeIDsEngineMatchesOracle: node ids outside the dense table
// range (negative or >= maxDenseNode) are interned through the overflow
// maps and take the same component-scoped path as small ids. On the
// crossbar and on a star fabric, with a NIC fault on a huge host id
// mid-run, the engine on IncrementalAllocator keeps tracking and
// matches the map-based oracle bitwise.
func TestHugeNodeIDsEngineMatchesOracle(t *testing.T) {
	h := graph.NodeID(maxDenseNode)
	starts := []struct {
		src, dst graph.NodeID
		vol, at  float64
	}{
		{h, 1, 10e6, 0}, {h, 2, 8e6, 0}, {3, 2, 6e6, 0}, // a huge sender's NIC
		{4, h + 7, 12e6, 0}, {5, h + 7, 9e6, 0}, // a huge receiver's NIC
		{h + 9, h + 1, 7e6, 0}, // both ends huge
		{-3, 6, 5e6, 0},        // negative sender
		{8, 9, 11e6, 0.01}, {h, 10, 4e6, 0.03},
	}
	// One timeline serves every engine in turn (SetFaults rewinds it):
	// its State keeps a dense factor per host up to the huge id.
	tl := fault.Compile(fault.Schedule{Events: []fault.Event{
		{Kind: fault.HostSlow, Target: int(h), Factor: 0.4, At: 0.02},
	}})
	run := func(e *FluidEngine) []core.Completion {
		e.SetFaults(tl)
		for _, s := range starts {
			if s.at > e.Now() {
				if done, _ := e.Advance(s.at); len(done) > 0 {
					t.Fatalf("completion before the last start at %g", s.at)
				}
			}
			e.StartFlow(s.src, s.dst, s.vol, s.at)
		}
		return core.Drain(e)
	}
	for _, fab := range churnFabrics[:2] {
		cfg := churnSubstrates[0].cfg
		cfg.Topo = fab.spec
		cfg.Faults = tl.State()
		inc := &IncrementalAllocator{Cfg: cfg}
		got := run(NewFluidEngine("inc", cfg.FlowCap, inc))
		if !inc.tracking || len(inc.idx.snd.big) == 0 || len(inc.idx.rcv.big) == 0 {
			t.Fatalf("%s: incremental allocator not tracking huge ids (tracking %v, overflow %d/%d)",
				fab.name, inc.tracking, len(inc.idx.snd.big), len(inc.idx.rcv.big))
		}
		want := run(NewFluidEngine("ref", cfg.FlowCap, &componentOracle{Cfg: cfg}))
		if len(got) != len(want) || len(got) != len(starts) {
			t.Fatalf("%s: %d vs %d completions, want %d", fab.name, len(got), len(want), len(starts))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: completion %d diverged: %+v vs %+v", fab.name, i, got[i], want[i])
			}
		}
	}
}

// TestAllocatorOwnershipRefused: an observing allocator holds one
// engine's active set, so attaching it to a second engine panics.
func TestAllocatorOwnershipRefused(t *testing.T) {
	cfg := churnSubstrates[0].cfg
	shared := &IncrementalAllocator{Cfg: cfg}
	NewFluidEngine("first", cfg.FlowCap, shared)
	defer func() {
		if recover() == nil {
			t.Error("an allocator already attached to an engine was attached again")
		}
	}()
	NewFluidEngine("second", cfg.FlowCap, shared)
}
