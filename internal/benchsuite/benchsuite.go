// Package benchsuite defines the canonical hot-path benchmark suite
// shared by `go test -bench` (bench_test.go at the repo root) and the
// cmd/bwbench perf-trajectory harness. Keeping one definition means the
// JSON snapshots committed per PR (BENCH_<n>.json) measure exactly what
// the test benchmarks measure.
//
// The suite pairs every optimized allocator benchmark with its retained
// reference implementation, so a snapshot directly shows the speedup and
// the allocation profile of the dense core against the map-based oracle.
package benchsuite

import (
	"context"
	"fmt"
	"regexp"
	"testing"

	"bwshare/internal/apps"
	"bwshare/internal/cluster"
	"bwshare/internal/core"
	"bwshare/internal/experiments"
	"bwshare/internal/fault"
	"bwshare/internal/fleet"
	"bwshare/internal/graph"
	"bwshare/internal/measure"
	"bwshare/internal/model"
	"bwshare/internal/netsim"
	"bwshare/internal/netsim/gige"
	"bwshare/internal/netsim/infiniband"
	"bwshare/internal/netsim/myrinet"
	"bwshare/internal/predict"
	"bwshare/internal/randgen"
	"bwshare/internal/replay"
	"bwshare/internal/schemes"
	"bwshare/internal/server"
	"bwshare/internal/topology"
	"bwshare/internal/trace"
)

// Benchmark is one named benchmark function.
type Benchmark struct {
	Name string
	F    func(b *testing.B)
}

// Result is the measured outcome of one benchmark, the unit of the
// BENCH_<n>.json trajectory files. Function-level entries fill the
// ns/op and allocation fields; service-level load entries (loadbench.go)
// additionally carry throughput and latency percentiles — a non-zero
// ThroughputRPS marks an entry as service-level, and bwbench -check
// gates it on throughput and p99 instead of ns/op and allocs.
type Result struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`

	// Service-level fields (load entries only).
	ThroughputRPS float64 `json:"throughput_rps,omitempty"`
	P50Ns         float64 `json:"p50_ns,omitempty"`
	P95Ns         float64 `json:"p95_ns,omitempty"`
	P99Ns         float64 `json:"p99_ns,omitempty"`
}

// benchSeed fixes the random scheme of the rand32 benchmarks.
const benchSeed = 7

// BenchFlowsN is the communication count of the rand32 scheme.
const BenchFlowsN = 32

// randomScheme32 draws the fixed 32-communication scheme on 16 nodes
// used by the rand32 substrate and session benchmarks.
func randomScheme32() *graph.Graph {
	g, err := randgen.SchemeFromSeed(benchSeed, randgen.SchemeConfig{
		MinNodes: 16, MaxNodes: 16,
		MinComms: BenchFlowsN, MaxComms: BenchFlowsN,
		MaxOut: 4, MaxIn: 4,
		MinVolume: 1e6, MaxVolume: 20e6,
	})
	if err != nil {
		panic("benchsuite: " + err.Error())
	}
	if g.Len() != BenchFlowsN {
		panic(fmt.Sprintf("benchsuite: degree caps truncated the bench scheme to %d comms", g.Len()))
	}
	return g
}

// engineBench benchmarks a full measure.Run (start all flows, run the
// engine dry) on one engine and scheme, engine reused across iterations
// so the pooled steady state is what gets measured.
func engineBench(mkEngine func() core.Engine, g *graph.Graph) func(b *testing.B) {
	return func(b *testing.B) {
		e := mkEngine()
		want := g.Len()
		measure.Run(e, g) // warm engine pools
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := measure.Run(e, g); len(r.Times) != want {
				b.Fatal("bad run")
			}
		}
	}
}

// benchTopo is the fabric used by the topology benchmarks: the 16-node
// bench scheme on four 4-host edge switches with a 4:1 oversubscribed
// fat-tree core (the PR-4 acceptance configuration).
var benchTopo = topology.Spec{Kind: topology.FatTree, Switches: 4, HostsPerSwitch: 4, Oversub: 4, Place: topology.Block}

// churnFlows builds `jobs` independent 4-node ring jobs (4 flows each
// on a private node range), the canonical multi-component churn
// population of the PR-5 benchmarks.
func churnFlows(jobs int) []*netsim.Flow {
	flows := make([]*netsim.Flow, 0, 4*jobs)
	for j := 0; j < jobs; j++ {
		base := graph.NodeID(4 * j)
		for k := 0; k < 4; k++ {
			flows = append(flows, &netsim.Flow{
				ID:  4*j + k,
				Src: base + graph.NodeID(k), Dst: base + graph.NodeID((k+1)%4),
				Remaining: 20e6,
			})
		}
	}
	return flows
}

// churnAllocBench measures the allocation cost of one churn event pair
// (a flow departs, the active set is reallocated, the flow returns, the
// set is reallocated again) with `jobs` independent jobs active. The
// churned job rotates across iterations. At 8 and 64 jobs the
// incremental component-scoped allocator's event cost must track the
// (fixed) component size, not the total flow count.
func churnAllocBench(mk func() netsim.Allocator, jobs int) func(b *testing.B) {
	return func(b *testing.B) {
		flows := churnFlows(jobs)
		alloc := mk()
		obs, observing := alloc.(netsim.ActiveSetObserver)
		if observing {
			obs.ActiveSetReset()
			for _, f := range flows {
				obs.FlowStarted(f)
			}
		}
		alloc.Allocate(flows) // warm scratch and component cache
		n := len(flows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx := (4 * i) % n
			f := flows[idx]
			if observing {
				obs.FlowFinished(f)
			}
			flows[idx] = flows[n-1]
			alloc.Allocate(flows[:n-1])
			f.Rate = 0
			if observing {
				obs.FlowStarted(f)
			}
			flows[n-1] = f
			alloc.Allocate(flows)
		}
	}
}

// churnEngineBench measures the full DES event loop under steady job
// churn: each op starts a 4-flow ring job at the frontier and advances
// the engine until the oldest job's four flows complete. With the
// incremental allocator and the reusable reap scratch this is the PR-5
// zero-allocation acceptance path.
func churnEngineBench(jobs int) func(b *testing.B) {
	return func(b *testing.B) {
		e := gige.New(gige.DefaultConfig())
		startJob := func(j int) {
			base := graph.NodeID(4 * (j % jobs))
			for k := 0; k < 4; k++ {
				e.StartFlow(base+graph.NodeID(k), base+graph.NodeID((k+1)%4), 20e6, e.Now())
			}
		}
		// Stagger the initial arrivals so one job departs per op.
		for j := 0; j < jobs; j++ {
			e.Advance(float64(j) * 1e-3)
			startJob(j)
		}
		job := jobs
		cycle := func() {
			startJob(job)
			job++
			for got := 0; got < 4; {
				done, _ := e.Advance(core.Inf)
				if len(done) == 0 {
					b.Fatal("engine stalled mid-churn")
				}
				got += len(done)
			}
		}
		for i := 0; i < 2*jobs; i++ {
			cycle() // warm every pool to steady state
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle()
		}
	}
}

// shardEngine builds the GigE substrate on the sharded component-lazy
// core at an explicit shard count — including 1 (gige.New always
// builds the sequential eager engine). The scaling
// rows below measure one core across counts, so the x8-vs-x1 ratio
// isolates shard scoping from the eager/lazy core difference.
func shardEngine(shards int) *netsim.FluidEngine {
	ccfg := gige.DefaultConfig().Coupled()
	return netsim.NewShardedFluidEngine("gige", ccfg.FlowCap, shards,
		func() netsim.Allocator { return &netsim.IncrementalAllocator{Cfg: ccfg} })
}

// seqEngine builds the default sequential eager engine on the same
// substrate, the `seq` reference row of the scaling benchmarks.
func seqEngine() *netsim.FluidEngine {
	return gige.New(gige.DefaultConfig())
}

// shardChurnBench measures the churn cycle of churnEngineBench on a
// bigger multi-component population — `jobs` independent 8-node ring
// jobs with staggered volumes — on the engine mk builds. The PR-9
// acceptance comparison runs it on the sharded core at 1/2/4/8 shards:
// event cost there scales with the owning shard's population, so
// higher counts shrink per-event work even on one CPU (results stay
// bit-identical; only the distribution changes).
func shardChurnBench(jobs int, mk func() *netsim.FluidEngine) func(b *testing.B) {
	return func(b *testing.B) {
		e := mk()
		startJob := func(j int) {
			base := graph.NodeID(8 * (j % jobs))
			for k := 0; k < 8; k++ {
				// Stagger volumes so one job's completions interleave
				// with its neighbours' instead of batching.
				vol := 20e6 * (1 + float64(k)/16)
				e.StartFlow(base+graph.NodeID(k), base+graph.NodeID((k+1)%8), vol, e.Now())
			}
		}
		for j := 0; j < jobs; j++ {
			e.Advance(float64(j) * 1e-3)
			startJob(j)
		}
		job := jobs
		cycle := func() {
			startJob(job)
			job++
			for got := 0; got < 8; {
				done, _ := e.Advance(core.Inf)
				if len(done) == 0 {
					b.Fatal("engine stalled mid-churn")
				}
				got += len(done)
			}
		}
		for i := 0; i < 2*jobs; i++ {
			cycle() // warm every pool and shard to steady state
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle()
		}
	}
}

// shardReplayBench measures a whole replay — Reset, start every job's
// flows at t=0, drain to empty — of the shardChurnBench population at a
// fixed shard count. Where the churn benchmark isolates steady-state
// event cost, this one covers the full lifecycle including placement
// and the final drain tail.
func shardReplayBench(jobs int, mk func() *netsim.FluidEngine) func(b *testing.B) {
	return func(b *testing.B) {
		e := mk()
		n := 8 * jobs
		cycle := func() {
			e.Reset()
			for j := 0; j < jobs; j++ {
				base := graph.NodeID(8 * j)
				for k := 0; k < 8; k++ {
					vol := 20e6 * (1 + float64(8*j+k)/float64(n))
					e.StartFlow(base+graph.NodeID(k), base+graph.NodeID((k+1)%8), vol, 0)
				}
			}
			for drained := 0; drained < n; {
				done, _ := e.Advance(core.Inf)
				if len(done) == 0 {
					b.Fatal("engine stalled mid-replay")
				}
				drained += len(done)
			}
		}
		cycle()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle()
		}
	}
}

// faultChurnBench measures the steady-state fault-churn cycle of the
// PR-7 acceptance criterion: a fat-tree engine with a three-event fault
// timeline (degrade, host slowdown, outage with repair) replays 8 flows
// through Reset + drain. Every Reset rewinds the timeline and every
// replay crosses all change points, so the 0 allocs/op bar covers the
// whole fault path: timeline stepping, capacity override application
// and component-scoped refill.
func faultChurnBench(cfg netsim.CoupledConfig) func(b *testing.B) {
	return func(b *testing.B) {
		sched := fault.Schedule{Events: []fault.Event{
			{Kind: fault.LinkDegrade, Target: 1, Factor: 0.5, At: 0.05, Until: 0.2},
			{Kind: fault.HostSlow, Target: 2, Factor: 0.25, At: 0.1, Until: 0.3},
			{Kind: fault.LinkDown, Target: 0, At: 0.15, Until: 0.25},
		}}
		tl := fault.Compile(sched)
		cfg.Faults = tl.State()
		e := netsim.NewFluidEngine("inc", cfg.FlowCap, &netsim.IncrementalAllocator{Cfg: cfg})
		e.SetFaults(tl)
		cycle := func() {
			e.Reset()
			for k := 0; k < 8; k++ {
				e.StartFlow(graph.NodeID(2*k), graph.NodeID(2*k+1), 20e6, 0)
			}
			for drained := 0; drained < 8; {
				done, _ := e.Advance(core.Inf)
				if len(done) == 0 {
					b.Fatal("engine stalled mid-replay")
				}
				drained += len(done)
			}
		}
		for i := 0; i < 5; i++ {
			cycle()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle()
		}
	}
}

// multiJobReplayBench measures one trace replay of `jobs` co-scheduled
// applications on the GigE-model predictor: a fixed cycle of wide
// all-to-alls, narrow pairwise exchanges and halo rings on dual-core
// nodes, rank r on node r mod nodes, so every node's NIC carries two
// jobs. The model re-scores the active conflict graph at every engine
// event, so this row tracks the predictor's per-event cost.
func multiJobReplayBench(jobs int) func(b *testing.B) {
	return func(b *testing.B) {
		var parts []*trace.Trace
		for j := 0; j < jobs; j++ {
			var (
				t   *trace.Trace
				err error
			)
			switch j % 6 {
			case 0:
				t, err = apps.AllToAll(16, 1, 4e6, 5e-3)
			case 1, 3:
				t, err = apps.AllToAll(4<<(j%4/2), 2, 4e6, 5e-3)
			case 2, 4:
				t, err = apps.Halo2D(4+2*(j%5), 1, 3, 4e6, 5e-3)
			default:
				t, err = apps.AllToAll(2, 3, 4e6, 5e-3)
			}
			if err != nil {
				b.Fatal(err)
			}
			parts = append(parts, t)
		}
		tr, err := apps.Compose(parts...)
		if err != nil {
			b.Fatal(err)
		}
		nodes := (len(tr.Tasks) + 1) / 2
		place := make(cluster.Placement, len(tr.Tasks))
		for r := range place {
			place[r] = graph.NodeID(r % nodes)
		}
		clu := cluster.Default(nodes)
		e, err := predict.NewEngine(predict.Spec{Model: model.NewGigE(), Ref: gige.New(gige.DefaultConfig()).RefRate()})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := replay.Run(e, clu, place, tr); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := replay.Run(e, clu, place, tr); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Suite returns the canonical benchmark list in presentation order.
func Suite() []Benchmark {
	gigeCfg := gige.DefaultConfig().Coupled()
	gigeTopoCfg := gigeCfg
	gigeTopoCfg.Topo = benchTopo
	s6 := schemes.Fig2(6)
	rand32 := randomScheme32()
	return []Benchmark{
		// Churn under multi-job consolidation (the PR-5 acceptance
		// scenario): per-event allocation cost of the incremental
		// component-scoped allocator with 8 vs 64 independent 4-flow jobs
		// active (event cost ~ component size), and the engine benchmark
		// running the complete DES loop at 0 allocs/op.
		{"ChurnAlloc/inc/gige/8jobs", churnAllocBench(func() netsim.Allocator { return &netsim.IncrementalAllocator{Cfg: gigeCfg} }, 8)},
		{"ChurnAlloc/inc/gige/64jobs", churnAllocBench(func() netsim.Allocator { return &netsim.IncrementalAllocator{Cfg: gigeCfg} }, 64)},
		{"ChurnEngine/gige/32jobs", churnEngineBench(32)},
		// Sharded engine scaling (PR-9): the same 64-job multi-component
		// workload on the component-lazy core at 1/2/4/8 worker shards
		// (results bit-identical across the x-row; per-event scan work
		// shrinks with the count), plus the sequential eager engine
		// (`seq`, what gige.New builds) as the absolute reference —
		// the x1-vs-seq gap is the lazy core's routing/bookkeeping
		// overhead, which higher shard counts amortize.
		{"ShardChurn/gige/64jobs/seq", shardChurnBench(64, seqEngine)},
		{"ShardChurn/gige/64jobs/x1", shardChurnBench(64, func() *netsim.FluidEngine { return shardEngine(1) })},
		{"ShardChurn/gige/64jobs/x2", shardChurnBench(64, func() *netsim.FluidEngine { return shardEngine(2) })},
		{"ShardChurn/gige/64jobs/x4", shardChurnBench(64, func() *netsim.FluidEngine { return shardEngine(4) })},
		{"ShardChurn/gige/64jobs/x8", shardChurnBench(64, func() *netsim.FluidEngine { return shardEngine(8) })},
		{"ShardReplay/gige/64jobs/seq", shardReplayBench(64, seqEngine)},
		{"ShardReplay/gige/64jobs/x1", shardReplayBench(64, func() *netsim.FluidEngine { return shardEngine(1) })},
		{"ShardReplay/gige/64jobs/x2", shardReplayBench(64, func() *netsim.FluidEngine { return shardEngine(2) })},
		{"ShardReplay/gige/64jobs/x4", shardReplayBench(64, func() *netsim.FluidEngine { return shardEngine(4) })},
		{"ShardReplay/gige/64jobs/x8", shardReplayBench(64, func() *netsim.FluidEngine { return shardEngine(8) })},
		// Fault churn: the dynamic-fabric replay cycle (PR 7) on the
		// bench fat-tree at 0 allocs/op.
		{"FaultChurn/inc/gige-fattree/8flows", faultChurnBench(gigeTopoCfg)},
		// Whole-substrate runs: fluid engines on the S6 scheme and the
		// 32-flow random scheme, and the packet-level Myrinet engine.
		{"Substrate/gige/S6", engineBench(func() core.Engine { return gige.New(gige.DefaultConfig()) }, s6)},
		{"Substrate/gige/rand32", engineBench(func() core.Engine { return gige.New(gige.DefaultConfig()) }, rand32)},
		{"Substrate/infiniband/rand32", engineBench(func() core.Engine { return infiniband.New(infiniband.DefaultConfig()) }, rand32)},
		{"Substrate/myrinet/S6", engineBench(func() core.Engine { return myrinet.New(myrinet.DefaultConfig()) }, s6)},
		// Serving layer: the bwserved prediction path. hit measures the
		// LRU cache hit (the acceptance criterion: 0 allocs/op); miss
		// disables the cache so every op runs the pooled simulator
		// session; session is the raw reusable-session predict.
		{"Server/predict/hit/s6", func(b *testing.B) {
			s := server.New(server.Config{Workers: 1, CacheSize: 16})
			if _, err := s.Predict(context.Background(), s6, "gige", false, 0, topology.Spec{}, fault.Schedule{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := s.Predict(context.Background(), s6, "gige", false, 0, topology.Spec{}, fault.Schedule{})
				if err != nil || !r.Cached {
					b.Fatal("expected a cache hit")
				}
			}
		}},
		{"Server/predict/miss/s6", func(b *testing.B) {
			s := server.New(server.Config{Workers: 1, CacheSize: -1})
			if _, err := s.Predict(context.Background(), s6, "gige", false, 0, topology.Spec{}, fault.Schedule{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := s.Predict(context.Background(), s6, "gige", false, 0, topology.Spec{}, fault.Schedule{})
				if err != nil || r.Cached {
					b.Fatal("expected an uncached prediction")
				}
			}
		}},
		// Topology-keyed cache hit: the extended key (hash x model x ref
		// x fabric) must keep the hit path at 0 allocs/op.
		{"Server/predict/hit/rand32-fattree", func(b *testing.B) {
			s := server.New(server.Config{Workers: 1, CacheSize: 16})
			if _, err := s.Predict(context.Background(), rand32, "gige", false, 0, benchTopo, fault.Schedule{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := s.Predict(context.Background(), rand32, "gige", false, 0, benchTopo, fault.Schedule{})
				if err != nil || !r.Cached {
					b.Fatal("expected a cache hit")
				}
			}
		}},
		// Placement engine: one full candidate enumeration (block,
		// roundrobin, greedy, 2 seeded-random) scored by what-if
		// simulation against 3 resident 4-task jobs on the 16-host
		// bench fat-tree (4 hosts stay free for the newcomer). This is
		// the cost of one POST .../placements.
		{"Fleet/placements/fattree-3resident", func(b *testing.B) {
			m := fleet.NewManager()
			if _, err := m.Create(fleet.Spec{Name: "bench", Topo: benchTopo}); err != nil {
				b.Fatal(err)
			}
			// Each job's scheme is over its own task ranks 0..3; the
			// placement engine maps ranks to distinct hosts.
			ring := func() *graph.Graph {
				gb := graph.NewBuilder()
				for k := 0; k < 4; k++ {
					gb.Add(fmt.Sprintf("c%d", k), graph.NodeID(k), graph.NodeID((k+1)%4), 20e6)
				}
				return gb.MustBuild()
			}
			for j := 0; j < 3; j++ {
				if _, err := m.AddJob("bench", fmt.Sprintf("resident%d", j), ring(), "", 0); err != nil {
					b.Fatal(err)
				}
			}
			scheme := ring()
			if _, err := m.Placements("bench", scheme, 2); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cands, err := m.Placements("bench", scheme, 2)
				if err != nil || len(cands) != 5 {
					b.Fatalf("cands=%d err=%v", len(cands), err)
				}
			}
		}},
		// Multi-job trace replay on the model-driven predictor (the
		// in-process replay workload of the repository benchmark).
		{"Replay/predict/gige/20jobs", multiJobReplayBench(20)},
		{"Session/times/rand32", func(b *testing.B) {
			m, sub, err := predict.LookupModel("gige")
			if err != nil {
				b.Fatal(err)
			}
			sess, err := predict.New(predict.Spec{Model: m, Ref: sub.RefRate()})
			if err != nil {
				b.Fatal(err)
			}
			sess.Times(rand32) // warm scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ts := sess.Times(rand32); len(ts) != BenchFlowsN {
					b.Fatal("bad run")
				}
			}
		}},
		// End-to-end randomized sweep (EXP-RND), serial workers so the
		// number is comparable across machines.
		{"Sweep/exp-rnd/8", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := experiments.RandomSweep(experiments.SweepConfig{Seed: 1, N: 8, Workers: 1})
				if err != nil || len(r.Rows) != 24 {
					b.Fatalf("sweep: rows=%d err=%v", len(r.Rows), err)
				}
			}
		}},
	}
}

// Run executes every suite benchmark whose name matches filter (nil
// means all) via testing.Benchmark and returns the results in suite
// order. emit, if non-nil, is called after each benchmark completes —
// cmd/bwbench uses it to stream progress. A benchmark that fails
// internally (b.Fatal/b.Error) is reported by name: testing.Benchmark
// swallows the failure message and returns a zero result, so N == 0 is
// the only failure signal available.
func Run(filter *regexp.Regexp, emit func(Result)) ([]Result, error) {
	var out []Result
	for _, bm := range Suite() {
		if filter != nil && !filter.MatchString(bm.Name) {
			continue
		}
		r := testing.Benchmark(bm.F)
		if r.N == 0 {
			return out, fmt.Errorf("benchmark %s failed (testing.Benchmark returned no iterations)", bm.Name)
		}
		res := Result{
			Name:        bm.Name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if emit != nil {
			emit(res)
		}
		out = append(out, res)
	}
	return out, nil
}
