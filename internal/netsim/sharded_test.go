package netsim

import (
	"math"
	"sort"
	"strings"
	"testing"

	"bwshare/internal/core"
	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/randgen"
	"bwshare/internal/topology"
)

// Differential determinism tests for the sharded component-lazy engine
// core: for a fixed event sequence, completions, frontier times, rates
// and per-flow byte state must be bit-identical at every shard count,
// with and without fault schedules. Equality is exact (==): shard
// placement may only decide where a component's arithmetic runs, never
// what it computes.

// shardedTestEngine builds a k-shard engine over per-shard
// IncrementalAllocators, wiring a compiled fault timeline (shared
// State) when sched is non-nil — the same wiring the gige/infiniband
// constructors use.
func shardedTestEngine(cfg CoupledConfig, sched *fault.Schedule, k int) *FluidEngine {
	var tl *fault.Timeline
	if sched != nil {
		tl = fault.Compile(*sched)
		cfg.Faults = tl.State()
	}
	e := NewShardedFluidEngine("sharded", cfg.FlowCap, k, func() Allocator {
		return &IncrementalAllocator{Cfg: cfg}
	})
	if tl != nil {
		e.SetFaults(tl)
	}
	return e
}

// flowState is the observable per-flow state a shard count must not be
// able to influence.
type flowState struct {
	id                    int
	rate, remaining       float64
	synced, deadline, min float64
}

func snapshotFlows(e *FluidEngine) []flowState {
	var out []flowState
	for _, s := range e.sh.shards {
		for _, f := range s.active {
			out = append(out, flowState{
				id: f.ID, rate: f.Rate, remaining: f.Remaining,
				synced: f.synced, deadline: f.deadline, min: s.min,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// arrival is one staggered StartFlow in the differential drive.
type arrival struct {
	at       float64
	src, dst graph.NodeID
	vol      float64
}

// driveLockstep replays the same arrival schedule on engines a and b in
// lockstep and fails on the first diverging completion batch, frontier
// time, or per-flow state snapshot.
func driveLockstep(t *testing.T, ctx string, a, b *FluidEngine, arrivals []arrival) {
	t.Helper()
	started, finA, finB := 0, 0, 0
	for {
		limit := core.Inf
		if started < len(arrivals) {
			limit = arrivals[started].at
		}
		da, na := a.Advance(limit)
		db, nb := b.Advance(limit)
		if na != nb {
			t.Fatalf("%s: frontier diverged: %.17g vs %.17g", ctx, na, nb)
		}
		if len(da) != len(db) {
			t.Fatalf("%s: completion batch size diverged at t=%.17g: %d vs %d", ctx, na, len(da), len(db))
		}
		for i := range da {
			if da[i] != db[i] {
				t.Fatalf("%s: completion %d diverged at t=%.17g: %+v vs %+v", ctx, i, na, da[i], db[i])
			}
		}
		finA += len(da)
		finB += len(db)
		sa, sb := snapshotFlows(a), snapshotFlows(b)
		if len(sa) != len(sb) {
			t.Fatalf("%s: active set size diverged at t=%.17g: %d vs %d", ctx, na, len(sa), len(sb))
		}
		for i := range sa {
			// min is a per-shard quantity: compare only the id-keyed
			// flow state exactly; shard minima are covered by the
			// frontier comparison above.
			sa[i].min, sb[i].min = 0, 0
			if sa[i] != sb[i] {
				t.Fatalf("%s: flow %d state diverged at t=%.17g:\n  %+v\n  %+v", ctx, sa[i].id, na, sa[i], sb[i])
			}
		}
		if len(da) > 0 {
			continue
		}
		if started == len(arrivals) {
			if finA != started {
				t.Fatalf("%s: drained with %d of %d flows finished", ctx, finA, started)
			}
			return
		}
		arr := arrivals[started]
		ia := a.StartFlow(arr.src, arr.dst, arr.vol, arr.at)
		ib := b.StartFlow(arr.src, arr.dst, arr.vol, arr.at)
		if ia != ib {
			t.Fatalf("%s: flow id diverged: %d vs %d", ctx, ia, ib)
		}
		started++
	}
}

// schemeArrivals staggers the communications of a seeded scheme over
// arrival times drawn from rng: a third start at time zero, the rest
// spread over the horizon so flows arrive while others are mid-flight —
// exercising component merges, shard migrations and frontier-advancing
// StartFlow paths.
func schemeArrivals(t *testing.T, g *graph.Graph, rng *randWrap, horizon float64) []arrival {
	t.Helper()
	comms := g.Comms()
	out := make([]arrival, 0, len(comms))
	for _, c := range comms {
		at := 0.0
		if rng.IntN(3) != 0 {
			at = rng.Float64() * horizon
		}
		out = append(out, arrival{at: at, src: c.Src, dst: c.Dst, vol: c.Volume})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// randWrap narrows randgen's rng to what schemeArrivals needs.
type randWrap struct {
	IntN    func(int) int
	Float64 func() float64
}

func newRandWrap(seed int64) *randWrap {
	r := randgen.NewRand(seed)
	return &randWrap{IntN: r.IntN, Float64: r.Float64}
}

// TestShardedEngineBitIdenticalAcrossShardCounts is the acceptance
// matrix for the sharded core: 60 seeded schemes x substrates x
// fabrics, staggered arrivals, shard counts 2, 4 and 8 against the
// 1-shard engine, compared event by event.
func TestShardedEngineBitIdenticalAcrossShardCounts(t *testing.T) {
	const seeds = 60
	schemes, err := randgen.Schemes(41, seeds, randgen.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range churnSubstrates {
		for _, fab := range churnFabrics {
			cfg := sub.cfg
			cfg.Topo = fab.spec
			for _, k := range []int{2, 4, 8} {
				seq := shardedTestEngine(cfg, nil, 1)
				par := shardedTestEngine(cfg, nil, k)
				for si, g := range schemes {
					rng := newRandWrap(int64(5000 + si))
					arrivals := schemeArrivals(t, g, rng, 0.15)
					ctx := sub.name + "/" + fab.name + "/shards=" + itoa(k) + "/scheme=" + itoa(si)
					driveLockstep(t, ctx, par, seq, arrivals)
					par.Reset()
					seq.Reset()
				}
			}
		}
	}
}

// TestShardedEngineBitIdenticalWithFaults repeats the differential
// matrix under seeded fault schedules (link down/degrade, host
// slowdown, timed repairs): fault routing, shard dirty marking and the
// shared fault.State must behave identically at every shard count.
func TestShardedEngineBitIdenticalWithFaults(t *testing.T) {
	const seeds = 60
	schemes, err := randgen.Schemes(43, seeds, randgen.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for subi, sub := range churnSubstrates {
		for fabi, fab := range churnFabrics {
			cfg := sub.cfg
			cfg.Topo = fab.spec
			for _, k := range []int{2, 8} {
				for si, g := range schemes {
					rng := randgen.NewRand(int64(9000 + 100*subi + 10*fabi + si))
					sched := randFaultSchedule(rng, fab.spec, 12, 0.4)
					seq := shardedTestEngine(cfg, &sched, 1)
					par := shardedTestEngine(cfg, &sched, k)
					arrivals := schemeArrivals(t, g, newRandWrap(int64(6000+si)), 0.3)
					ctx := sub.name + "/" + fab.name + "/faulted/shards=" + itoa(k) + "/scheme=" + itoa(si)
					driveLockstep(t, ctx, par, seq, arrivals)
				}
			}
		}
	}
}

// eagerTestEngine builds the sequential eager-core engine over a single
// IncrementalAllocator — the exact engine the gige/infiniband
// substrates build — wiring a compiled fault timeline
// (its own State) when sched is non-nil.
func eagerTestEngine(cfg CoupledConfig, sched *fault.Schedule) *FluidEngine {
	var tl *fault.Timeline
	if sched != nil {
		tl = fault.Compile(*sched)
		cfg.Faults = tl.State()
	}
	e := NewFluidEngine("eager", cfg.FlowCap, &IncrementalAllocator{Cfg: cfg})
	if tl != nil {
		e.SetFaults(tl)
	}
	return e
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

// crossCoreTol is the relative tolerance for eager-vs-sharded
// completion times. The sequential eager core re-materializes every
// flow's remaining bytes at each global event, while the sharded core
// integrates each component between its own events only, so the two
// accumulate float rounding in different groupings — the same
// eager-vs-lazy effect predict's parallel sessions document. The
// values are equal to within a few ulps; everything coarser than
// rounding (routing, fault windows, completion sets) must agree.
const crossCoreTol = 1e-9

func compareCrossCore(t *testing.T, ctx string, par, seq map[int]float64) {
	t.Helper()
	if len(par) != len(seq) {
		t.Fatalf("%s: completion count diverged: %d vs %d", ctx, len(par), len(seq))
	}
	for id, tp := range par {
		ts, ok := seq[id]
		if !ok {
			t.Fatalf("%s: flow %d completed only on the sharded core", ctx, id)
		}
		if diff := math.Abs(tp - ts); diff > crossCoreTol*math.Max(1, math.Abs(ts)) {
			t.Fatalf("%s: flow %d completion diverged beyond rounding: %.17g vs %.17g", ctx, id, tp, ts)
		}
	}
}

// TestShardedEngineMatchesSequentialEngine is the cross-core acceptance
// matrix: the sharded component-lazy core at 1 and 8 shards against the
// sequential eager engine over the seeded scheme matrix. This is the
// contract the engine choice relies on — the sequential engine or the
// sharded one must not change any completion beyond final-ulp
// rounding. (Bit-exact equality
// across shard counts of the sharded core itself is pinned by the
// lockstep matrix above.)
func TestShardedEngineMatchesSequentialEngine(t *testing.T) {
	const seeds = 60
	schemes, err := randgen.Schemes(41, seeds, randgen.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range churnSubstrates {
		for _, fab := range churnFabrics {
			cfg := sub.cfg
			cfg.Topo = fab.spec
			for _, k := range []int{1, 8} {
				for si, g := range schemes {
					par := shardedTestEngine(cfg, nil, k)
					seq := eagerTestEngine(cfg, nil)
					arrivals := schemeArrivals(t, g, newRandWrap(int64(5000+si)), 0.15)
					ctx := sub.name + "/" + fab.name + "/eager-vs-shards=" + itoa(k) + "/scheme=" + itoa(si)
					compareCrossCore(t, ctx, runCollect(t, par, arrivals), runCollect(t, seq, arrivals))
				}
			}
		}
	}
}

// TestShardedEngineMatchesSequentialEngineWithFaults repeats the
// cross-core differential under seeded fault schedules: the eager
// engine's fault-bounded Advance and the sharded core's fault routing
// must agree on every completion to within rounding.
func TestShardedEngineMatchesSequentialEngineWithFaults(t *testing.T) {
	const seeds = 20
	schemes, err := randgen.Schemes(43, seeds, randgen.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for subi, sub := range churnSubstrates {
		for fabi, fab := range churnFabrics {
			cfg := sub.cfg
			cfg.Topo = fab.spec
			for si, g := range schemes {
				rng := randgen.NewRand(int64(9000 + 100*subi + 10*fabi + si))
				sched := randFaultSchedule(rng, fab.spec, 12, 0.4)
				par := shardedTestEngine(cfg, &sched, 8)
				seq := eagerTestEngine(cfg, &sched)
				arrivals := schemeArrivals(t, g, newRandWrap(int64(6000+si)), 0.3)
				ctx := sub.name + "/" + fab.name + "/faulted/eager-vs-shards=8/scheme=" + itoa(si)
				compareCrossCore(t, ctx, runCollect(t, par, arrivals), runCollect(t, seq, arrivals))
			}
		}
	}
}

// TestShardedMigrationMergesComponents pins the merge/migration
// protocol: two single-flow components land on different shards, a
// bridging flow merges them onto one shard, and the merged component
// still completes identically to the 1-shard engine.
func TestShardedMigrationMergesComponents(t *testing.T) {
	cfg := churnSubstrates[0].cfg
	e := shardedTestEngine(cfg, nil, 2)
	e.StartFlow(0, 1, 10e6, 0) // new component -> shard 0
	e.StartFlow(2, 3, 10e6, 0) // new component -> shard 1
	s := e.sh.shards
	if len(s[0].active) != 1 || len(s[1].active) != 1 {
		t.Fatalf("expected one flow per shard, got %d/%d", len(s[0].active), len(s[1].active))
	}
	// 0 -> 3 shares node 0's sender NIC with the first component and
	// node 3's receiver NIC with the second: the components merge; the
	// tie on size breaks to the lowest shard index, so shard 1's flow
	// migrates to shard 0.
	e.StartFlow(0, 3, 5e6, 0)
	if len(s[0].active) != 3 || len(s[1].active) != 0 {
		t.Fatalf("expected merged component on shard 0, got %d/%d", len(s[0].active), len(s[1].active))
	}
	for i := 1; i < len(s[0].active); i++ {
		if s[0].active[i-1].ID >= s[0].active[i].ID {
			t.Fatalf("merged active set out of flow-id order: %d before %d",
				s[0].active[i-1].ID, s[0].active[i].ID)
		}
	}
	seq := shardedTestEngine(cfg, nil, 1)
	seq.StartFlow(0, 1, 10e6, 0)
	seq.StartFlow(2, 3, 10e6, 0)
	seq.StartFlow(0, 3, 5e6, 0)
	got := core.Drain(e)
	want := core.Drain(seq)
	if len(got) != len(want) {
		t.Fatalf("completion count diverged: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("completion %d diverged: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestShardedCoarseFallback: a node id outside the dense range degrades
// routing to a single shard (the allocators fall back to their
// reference path on the same condition), and results still match the
// 1-shard engine exactly.
func TestShardedCoarseFallback(t *testing.T) {
	cfg := churnSubstrates[1].cfg
	par := shardedTestEngine(cfg, nil, 4)
	seq := shardedTestEngine(cfg, nil, 1)
	for _, e := range []*FluidEngine{par, seq} {
		e.StartFlow(0, 1, 10e6, 0)
		e.StartFlow(2, 3, 20e6, 0)
		e.StartFlow(graph.NodeID(maxDenseNode)+7, 4, 5e6, 0) // out of dense range
		e.StartFlow(5, 6, 15e6, 0.001)
	}
	if !par.sh.coarse {
		t.Fatal("out-of-range node id did not enter coarse mode")
	}
	for i := 1; i < len(par.sh.shards); i++ {
		if n := len(par.sh.shards[i].active); n != 0 {
			t.Fatalf("coarse mode left %d flows on shard %d", n, i)
		}
	}
	got := core.Drain(par)
	want := core.Drain(seq)
	if len(got) != len(want) {
		t.Fatalf("completion count diverged: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("completion %d diverged: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// blockingAlloc is a ComponentAllocator whose Allocate parks until
// released, so a test can hold an engine mid-Advance from the driving
// goroutine's perspective.
type blockingAlloc struct {
	entered chan struct{}
	release chan struct{}
}

func (b *blockingAlloc) Allocate(flows []*Flow) {
	if b.entered != nil {
		b.entered <- struct{}{}
		<-b.release
		b.entered = nil // block only the first fill
	}
	for _, f := range flows {
		f.Rate = 1e6
	}
}

func (b *blockingAlloc) ComponentTopology() topology.Spec { return topology.Spec{} }

// TestShardedConcurrentMisusePanics: a second goroutine calling
// StartFlow while Advance is in flight is a driver bug; the sharded
// core must detect it and panic rather than corrupt shard state.
func TestShardedConcurrentMisusePanics(t *testing.T) {
	ba := &blockingAlloc{entered: make(chan struct{}), release: make(chan struct{})}
	e := NewShardedFluidEngine("misuse", 1e6, 1, func() Allocator { return ba })
	e.StartFlow(0, 1, 1e6, 0)
	advanced := make(chan struct{})
	go func() {
		defer close(advanced)
		e.Advance(core.Inf)
	}()
	<-ba.entered // Advance is now mid-operation, parked in the fill
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("concurrent StartFlow during Advance did not panic")
				return
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, "concurrent engine call") {
				t.Errorf("unexpected panic value: %v", r)
			}
		}()
		e.StartFlow(2, 3, 1e6, 0)
	}()
	close(ba.release)
	<-advanced
	// The engine must still be usable by its single driver.
	if _, now := e.Advance(core.Inf); math.IsNaN(now) {
		t.Fatal("engine unusable after misuse detection")
	}
	e.StartFlow(2, 3, 1e6, e.Now())
	if done := core.Drain(e); len(done) != 1 {
		t.Fatalf("post-misuse flow did not complete: %d completions", len(done))
	}
}

// TestShardedAllocatorOwnershipRefused mirrors TestSharedAllocatorRefused
// for the sharded constructor: a factory handing the same claimable
// allocator to two shards (or a second engine) must panic instead of
// silently sharing incremental state.
func TestShardedAllocatorOwnershipRefused(t *testing.T) {
	cfg := churnSubstrates[0].cfg
	shared := &IncrementalAllocator{Cfg: cfg}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("factory returning a shared allocator instance was not refused")
			}
		}()
		NewShardedFluidEngine("dup", cfg.FlowCap, 2, func() Allocator { return shared })
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("non-component allocator was not refused by the sharded constructor")
			}
		}()
		NewShardedFluidEngine("plain", cfg.FlowCap, 2, func() Allocator {
			return &CoupledAllocator{Cfg: cfg}
		})
	}()
}

// TestShardedShardCountClamped: shard counts below 1 clamp to a single
// shard, and Shards reports the configured width.
func TestShardedShardCountClamped(t *testing.T) {
	cfg := churnSubstrates[0].cfg
	e := NewShardedFluidEngine("clamp", cfg.FlowCap, 0, func() Allocator {
		return &IncrementalAllocator{Cfg: cfg}
	})
	if e.Shards() != 1 {
		t.Fatalf("Shards() = %d after clamping, want 1", e.Shards())
	}
	e8 := shardedTestEngine(cfg, nil, 8)
	if e8.Shards() != 8 {
		t.Fatalf("Shards() = %d, want 8", e8.Shards())
	}
	var se core.ShardedEngine = e8
	if se.Shards() != 8 {
		t.Fatal("core.ShardedEngine view disagrees")
	}
}

// itoa avoids importing strconv in hot test loops' context strings.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
