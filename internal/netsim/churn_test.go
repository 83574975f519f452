package netsim

import (
	"testing"

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

// churnFabrics are the fabrics of the PR-5 acceptance matrix. Sizes are
// kept small so random schemes exercise both intra- and inter-switch
// traffic; SwitchOf wraps out-of-range ids, which both sides share.
var churnFabrics = []struct {
	name string
	spec topology.Spec
}{
	{"crossbar", topology.Spec{}},
	{"star", topology.Spec{Kind: topology.Star, Switches: 4, HostsPerSwitch: 4, Place: topology.Block}},
	{"fattree", topology.Spec{Kind: topology.FatTree, Switches: 4, HostsPerSwitch: 4, Oversub: 2, Place: topology.RoundRobin}},
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
// would pin structs the engine's free-list cap releases to the GC.
func TestIncrementalDoesNotRetainFlowPointers(t *testing.T) {
	h := newChurnHarness(churnSubstrates[0].cfg)
	for i := 0; i < 8; i++ {
		h.add(graph.NodeID(2*i), graph.NodeID(2*i+1), 10e6)
	}
	h.check(t, "seed state")
	for name, buf := range map[string][]*Flow{"dirty": h.inc.dirty, "grouper": h.inc.grp.sorted} {
		for i, f := range buf[:cap(buf)] {
			if f != nil {
				t.Fatalf("%s[%d] retains a Flow pointer after Allocate", name, i)
			}
		}
	}
	for i, c := range h.inc.grp.comps[:cap(h.inc.grp.comps)] {
		if c != nil {
			t.Fatalf("grouper component %d retains a flow slice after Allocate", i)
		}
	}
}

// TestIncrementalShedsOversizedState: a run that addressed a huge node
// id (or a huge flow count) must not pin the inflated slot index past
// the next engine reset, mirroring the fillScratch shedding cap. The
// index is the one type both IncrementalAllocator and the sharded
// engine core keep, so both must shed through it.
func TestIncrementalShedsOversizedState(t *testing.T) {
	huge := graph.NodeID(maxPooledScratchLen + 10)
	a := &IncrementalAllocator{Cfg: churnSubstrates[0].cfg}
	a.ActiveSetReset()
	f := &Flow{ID: 0, Src: huge, Dst: 1, Remaining: 1e6}
	a.FlowStarted(f)
	a.Allocate([]*Flow{f})
	e := NewShardedFluidEngine("sh", 1e6, 2, func() Allocator { return &IncrementalAllocator{Cfg: churnSubstrates[0].cfg} })
	e.StartFlow(huge, 1, 1e6, 0)
	for _, x := range []struct {
		name string
		idx  *slotIndex
	}{{"incremental", &a.idx}, {"sharded core", &e.sh.idx}} {
		if len(x.idx.snd.dense) <= maxPooledScratchLen {
			t.Fatalf("%s: test setup: slot table not inflated (len %d)", x.name, len(x.idx.snd.dense))
		}
	}
	a.FlowFinished(f)
	a.ActiveSetReset()
	e.Reset()
	for _, x := range []struct {
		name string
		idx  *slotIndex
	}{{"incremental", &a.idx}, {"sharded core", &e.sh.idx}} {
		if len(x.idx.snd.dense) != 0 || len(x.idx.rcv.dense) != 0 {
			t.Fatalf("%s: reset kept inflated slot tables (snd %d, rcv %d)", x.name, len(x.idx.snd.dense), len(x.idx.rcv.dense))
		}
	}
	// A normally sized run keeps its capacity across resets (the
	// zero-allocation steady state depends on it).
	g := &Flow{ID: 1, Src: 3, Dst: 4, Remaining: 1e6}
	a.FlowStarted(g)
	a.Allocate([]*Flow{g})
	e.StartFlow(3, 4, 1e6, 0)
	snd, esnd := len(a.idx.snd.dense), len(e.sh.idx.snd.dense)
	a.FlowFinished(g)
	a.ActiveSetReset()
	e.Reset()
	if cap(a.idx.snd.dense) < snd || cap(e.sh.idx.snd.dense) < esnd {
		t.Fatal("reset shed a normally sized slot table")
	}
}
