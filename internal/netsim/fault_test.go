package netsim

import (
	"math"
	"math/rand/v2"
	"testing"

	"bwshare/internal/core"
	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/measure"
	"bwshare/internal/randgen"
	"bwshare/internal/topology"
)

// Differential tests for fault-injected replay: an engine driving the
// incremental allocator through a fault timeline must reproduce the
// full-recompute oracle engine (componentOracle, which
// rereads the mutated fault.State on every Allocate) bit for bit. The
// fabrics and substrates are the churn-test matrix; the schedules add
// seeded link failures, degradations and NIC slowdowns on top.

// faultHorizon is the window faults are drawn from, per substrate: it
// should overlap the replay of a DefaultSchemeConfig scheme so most
// events land mid-transfer, with the generator deliberately spilling a
// little before t=0 and past the typical makespan.
func faultHorizon(lineRate float64) float64 {
	// 20 MB at ~0.75*lineRate is the longest lone transfer; contention
	// stretches real makespans past it.
	return 20e6 / (0.75 * lineRate) * 1.5
}

// randFaultSchedule draws a seeded schedule valid for topo: link downs
// and degradations on non-trivial fabrics, host NIC slowdowns
// everywhere. Every link-down repairs and every permanent factor stays
// positive, so replay always completes; some events start before t=0
// (folded into the initial state) and some never matter (past the last
// completion) — both are part of what the sweep exercises.
func randFaultSchedule(rng *rand.Rand, topo topology.Spec, hosts int, horizon float64) fault.Schedule {
	n := 3 + rng.IntN(4)
	evs := make([]fault.Event, 0, n)
	for i := 0; i < n; i++ {
		at := (rng.Float64()*1.3 - 0.15) * horizon
		until := at + (0.2+0.5*rng.Float64())*horizon
		kind := rng.IntN(3)
		if topo.Trivial() {
			kind = 2
		}
		switch kind {
		case 0:
			evs = append(evs, fault.Event{Kind: fault.LinkDown, Target: rng.IntN(topo.Switches), At: at, Until: until})
		case 1:
			e := fault.Event{Kind: fault.LinkDegrade, Target: rng.IntN(topo.Switches), Factor: 0.05 + 0.9*rng.Float64(), At: at}
			if rng.IntN(2) == 0 {
				e.Until = until
			}
			evs = append(evs, e)
		default:
			e := fault.Event{Kind: fault.HostSlow, Target: rng.IntN(hosts), Factor: 0.1 + 0.85*rng.Float64(), At: at}
			if rng.IntN(2) == 0 {
				e.Until = until
			}
			evs = append(evs, e)
		}
	}
	return fault.Schedule{Events: evs}
}

// faultedEngine wires an engine to its own compiled copy of sched.
// Each engine needs a private Timeline (the State mutates as the clock
// crosses change points), exactly as the substrate constructors do it.
func faultedEngine(name string, cfg CoupledConfig, sched fault.Schedule, oracle bool) *FluidEngine {
	tl := fault.Compile(sched)
	cfg.Faults = tl.State()
	var alloc Allocator
	if oracle {
		alloc = &componentOracle{Cfg: cfg}
	} else {
		alloc = &IncrementalAllocator{Cfg: cfg}
	}
	e := NewFluidEngine(name, cfg.FlowCap, alloc)
	e.SetFaults(tl)
	return e
}

// TestFaultedEngineMatchesOracleSeededSchemes is the PR-7 acceptance
// matrix: >= 60 seeded (scheme x fault-schedule x substrate x fabric)
// cases where the incremental fault-aware replay's completion times
// equal the map-based full-recompute reference's exactly. The oracle
// side has no FaultObserver, so every fault step goes through a whole
// active-set recompute against the mutated State — the two paths share
// only the State itself.
func TestFaultedEngineMatchesOracleSeededSchemes(t *testing.T) {
	const seeds = 10
	schemes, err := randgen.Schemes(31, seeds, randgen.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := 0
	for subi, sub := range churnSubstrates {
		horizon := faultHorizon(sub.cfg.LineRate)
		for fabi, fab := range churnFabrics {
			cfg := sub.cfg
			cfg.Topo = fab.spec
			for si, g := range schemes {
				rng := randgen.NewRand(int64(7000 + 100*subi + 10*fabi + si))
				sched := randFaultSchedule(rng, fab.spec, 12, horizon)
				if err := sched.Validate(fab.spec); err != nil {
					t.Fatalf("%s/%s scheme %d: generated invalid schedule: %v", sub.name, fab.name, si, err)
				}
				inc := faultedEngine("inc", cfg, sched, false)
				ref := faultedEngine("ref", cfg, sched, true)
				ra := measure.Run(inc, g)
				rb := measure.Run(ref, g)
				for i := range ra.Times {
					if ra.Times[i] != rb.Times[i] {
						t.Fatalf("%s/%s scheme %d comm %d (faults:\n%s): inc time %.17g oracle %.17g",
							sub.name, fab.name, si, i, sched.Canonical(), ra.Times[i], rb.Times[i])
					}
				}
				cases++
			}
		}
	}
	if cases < 60 {
		t.Fatalf("matrix covered %d cases, want >= 60", cases)
	}
}

// TestFaultBeforeZeroFoldsIntoInitialState: an event entirely in the
// past-or-at-zero region must be indistinguishable from one at t=0 —
// Compile folds both into the initial snapshot.
func TestFaultBeforeZeroFoldsIntoInitialState(t *testing.T) {
	cfg := churnSubstrates[0].cfg
	g := testScheme(t)
	early := fault.Schedule{Events: []fault.Event{{Kind: fault.HostSlow, Target: 0, Factor: 0.5, At: -3}}}
	atZero := fault.Schedule{Events: []fault.Event{{Kind: fault.HostSlow, Target: 0, Factor: 0.5, At: 0}}}
	ra := measure.Run(faultedEngine("early", cfg, early, false), g)
	rb := measure.Run(faultedEngine("zero", cfg, atZero, false), g)
	for i := range ra.Times {
		if ra.Times[i] != rb.Times[i] {
			t.Fatalf("comm %d: pre-zero fault %.17g, at-zero fault %.17g", i, ra.Times[i], rb.Times[i])
		}
	}
}

// TestFaultAfterLastCompletionIsInert: a fault scheduled past the last
// completion must not change any time, and the replay must still run
// dry (the leftover change points are consumed by the empty-active
// sync, not left to hang Advance).
func TestFaultAfterLastCompletionIsInert(t *testing.T) {
	cfg := churnSubstrates[0].cfg
	g := testScheme(t)
	late := fault.Schedule{Events: []fault.Event{{Kind: fault.HostSlow, Target: 0, Factor: 0.25, At: 1e6, Until: 2e6}}}
	healthy := NewFluidEngine("healthy", cfg.FlowCap, &IncrementalAllocator{Cfg: cfg})
	ra := measure.Run(faultedEngine("late", cfg, late, false), g)
	rb := measure.Run(healthy, g)
	for i := range ra.Times {
		if ra.Times[i] != rb.Times[i] {
			t.Fatalf("comm %d: late-fault %.17g, healthy %.17g", i, ra.Times[i], rb.Times[i])
		}
	}
}

// TestDegradeToZeroBehavesAsLinkDown: capacity degradation with factor
// 0 must be exactly a link failure — same stall, same revival, same
// bits — with no divide-by-zero artifacts in the allocators.
func TestDegradeToZeroBehavesAsLinkDown(t *testing.T) {
	for _, fab := range churnFabrics[1:] { // needs a fabric with links
		cfg := churnSubstrates[0].cfg
		cfg.Topo = fab.spec
		g := testScheme(t)
		down := fault.Schedule{Events: []fault.Event{{Kind: fault.LinkDown, Target: 1, At: 0.02, Until: 0.3}}}
		zero := fault.Schedule{Events: []fault.Event{{Kind: fault.LinkDegrade, Target: 1, Factor: 0, At: 0.02, Until: 0.3}}}
		ra := measure.Run(faultedEngine("down", cfg, down, false), g)
		rb := measure.Run(faultedEngine("zero", cfg, zero, false), g)
		for i := range ra.Times {
			if ra.Times[i] != rb.Times[i] {
				t.Fatalf("%s comm %d: link-down %.17g, degrade-to-zero %.17g", fab.name, i, ra.Times[i], rb.Times[i])
			}
		}
	}
}

// testScheme builds a small fixed scheme spanning several switches of
// the 4x4 test fabrics, with enough receiver contention to engage the
// coupling phase.
func testScheme(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	for i, c := range []struct {
		src, dst graph.NodeID
		vol      float64
	}{
		{0, 1, 20e6}, {2, 1, 20e6}, {4, 1, 10e6},
		{5, 6, 20e6}, {8, 9, 15e6}, {10, 3, 5e6},
	} {
		b.Add(string(rune('a'+i)), c.src, c.dst, c.vol)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRepairRevivesStalledFlows: a lone flow whose uplink fails
// mid-transfer stalls at rate zero, survives an Advance past the
// outage with no completion, and finishes after the repair with the
// outage's exact duration added to its healthy time.
func TestRepairRevivesStalledFlows(t *testing.T) {
	const t1, t2 = 0.05, 0.4
	cfg := churnSubstrates[0].cfg
	cfg.Topo = churnFabrics[1].spec // star, block placement: 0 -> sw 0, 5 -> sw 1
	healthy := NewFluidEngine("healthy", cfg.FlowCap, &IncrementalAllocator{Cfg: cfg})
	healthy.StartFlow(0, 5, 20e6, 0)
	h := core.Drain(healthy)
	if len(h) != 1 {
		t.Fatalf("healthy drain returned %d completions", len(h))
	}
	sched := fault.Schedule{Events: []fault.Event{{Kind: fault.LinkDown, Target: 0, At: t1, Until: t2}}}
	e := faultedEngine("faulted", cfg, sched, false)
	e.StartFlow(0, 5, 20e6, 0)
	// Mid-outage the flow must be stalled, not completed and not erred.
	if done, now := e.Advance((t1 + t2) / 2); len(done) != 0 || now != (t1+t2)/2 {
		t.Fatalf("mid-outage Advance: %d completions at %g", len(done), now)
	}
	d := core.Drain(e)
	if len(d) != 1 {
		t.Fatalf("faulted drain returned %d completions", len(d))
	}
	want := h[0].Time + (t2 - t1)
	if math.Abs(d[0].Time-want) > 1e-9*want {
		t.Fatalf("faulted completion %.17g, want healthy+outage %.17g", d[0].Time, want)
	}
	if d[0].Time <= t2 {
		t.Fatalf("flow completed at %g, inside the outage ending %g", d[0].Time, t2)
	}
}

// TestHostSlowedToZeroStallsWithoutNaN: both endpoints of a flow
// slowed to factor zero drive the coupling ratio through 0/0 territory;
// the allocator must produce rate 0 (the engine panics on NaN), the
// rest of the fabric must keep moving, and the repair must revive the
// stalled flow.
func TestHostSlowedToZeroStallsWithoutNaN(t *testing.T) {
	const repair = 0.5
	cfg := churnSubstrates[0].cfg
	sched := fault.Schedule{Events: []fault.Event{
		{Kind: fault.HostSlow, Target: 0, Factor: 0, At: 0, Until: repair},
		{Kind: fault.HostSlow, Target: 1, Factor: 0, At: 0, Until: repair},
	}}
	e := faultedEngine("zerohosts", cfg, sched, false)
	e.StartFlow(0, 1, 10e6, 0) // fully stalled: both endpoints at zero
	e.StartFlow(2, 1, 10e6, 0) // stalled by its receiver
	e.StartFlow(4, 5, 10e6, 0) // healthy bystander
	done, _ := e.Advance(repair / 2)
	if len(done) != 1 {
		t.Fatalf("bystander did not complete during the outage (%d completions)", len(done))
	}
	if done[0].Flow != 2 {
		t.Fatalf("completed flow %d during outage, want bystander 2", done[0].Flow)
	}
	rest := core.Drain(e)
	if len(rest) != 2 {
		t.Fatalf("stalled flows did not revive after repair: %d completions", len(rest))
	}
	for _, c := range rest {
		if c.Time <= repair {
			t.Fatalf("flow %d completed at %g, before the repair at %g", c.Flow, c.Time, repair)
		}
	}
}

// TestFaultChurnZeroAllocs is the steady-state criterion: a warmed
// engine replaying a workload through a multi-event fault timeline —
// link down, degradation, NIC slowdown, repairs, component-scoped
// refills on every change point — allocates nothing per cycle.
func TestFaultChurnZeroAllocs(t *testing.T) {
	cfg := churnSubstrates[0].cfg
	cfg.Topo = churnFabrics[2].spec // fattree, roundrobin placement
	sched := fault.Schedule{Events: []fault.Event{
		{Kind: fault.LinkDegrade, Target: 1, Factor: 0.5, At: 0.05, Until: 0.2},
		{Kind: fault.HostSlow, Target: 2, Factor: 0.25, At: 0.1, Until: 0.3},
		{Kind: fault.LinkDown, Target: 0, At: 0.15, Until: 0.25},
	}}
	tl := fault.Compile(sched)
	cfg.Faults = tl.State()
	e := NewFluidEngine("inc", cfg.FlowCap, &IncrementalAllocator{Cfg: cfg})
	e.SetFaults(tl)
	cycle := func() {
		e.Reset()
		for k := 0; k < 8; k++ {
			e.StartFlow(graph.NodeID(2*k), graph.NodeID(2*k+1), 20e6, 0)
		}
		for drained := 0; drained < 8; {
			done, _ := e.Advance(core.Inf)
			if len(done) == 0 {
				t.Fatal("engine stalled mid-replay")
			}
			drained += len(done)
		}
	}
	for i := 0; i < 5; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("fault-churn cycle allocates %.2f objects/op in steady state, want 0", avg)
	}
}
