package predict

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"bwshare/internal/cluster"
	"bwshare/internal/core"
	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/model"
	"bwshare/internal/netsim"
	"bwshare/internal/randgen"
	"bwshare/internal/replay"
	"bwshare/internal/schemes"
	"bwshare/internal/topology"
)

// wholeSetOracle is the predictor's allocation before it went
// component-incremental: every Allocate rebuilds the conflict graph of
// every active flow, scores it, caps each rate by its endpoints' NIC
// fault factors and, on a fabric, water-fills the uplinks. It numbers
// the graph's nodes itself, by node id in first-appearance order, both
// roles of a node on one index, independently of the tracker's walk.
// The model allocator must match it bitwise. Do not make it
// incremental.
type wholeSetOracle struct {
	m        core.Model
	ref      float64
	topo     topology.Spec
	faults   *fault.State
	tf       netsim.TopoFiller
	comms    []graph.Comm
	index    map[graph.NodeID]int
	src, dst []int
	g        graph.Graph
}

func (o *wholeSetOracle) Allocate(flows []*netsim.Flow) {
	if len(flows) == 0 {
		return
	}
	if o.index == nil {
		o.index = make(map[graph.NodeID]int)
	}
	clear(o.index)
	node := func(id graph.NodeID) int {
		k, ok := o.index[id]
		if !ok {
			k = len(o.index)
			o.index[id] = k
		}
		return k
	}
	o.comms, o.src, o.dst = o.comms[:0], o.src[:0], o.dst[:0]
	for _, f := range flows {
		o.comms = append(o.comms, graph.Comm{Src: f.Src, Dst: f.Dst, Volume: f.Remaining})
		o.src = append(o.src, node(f.Src))
		o.dst = append(o.dst, node(f.Dst))
	}
	graph.RebuildNumbered(&o.g, o.comms, o.src, o.dst, len(o.index))
	p := o.m.Penalties(&o.g)
	for i, f := range flows {
		r := o.ref / p[i]
		if o.faults != nil {
			r = min(r, o.ref*o.faults.HostFactor(int(f.Src)), o.ref*o.faults.HostFactor(int(f.Dst)))
		}
		f.Rate = r
	}
	if !o.topo.Trivial() {
		o.tf.Apply(flows, o.topo, o.ref)
	}
}

// rateLog records the rate of every active flow after every Allocate.
type rateLog []float64

func (l *rateLog) record(flows []*netsim.Flow) {
	for _, f := range flows {
		*l = append(*l, f.Rate)
	}
}

// probedAllocator is the model allocator with its rates logged. The
// embedded pointer keeps its observer methods and engine claim.
type probedAllocator struct {
	*modelAllocator
	log rateLog
}

func (p *probedAllocator) Allocate(flows []*netsim.Flow) {
	p.modelAllocator.Allocate(flows)
	p.log.record(flows)
}

// probedOracle is wholeSetOracle with its rates logged.
type probedOracle struct {
	wholeSetOracle
	log rateLog
}

func (p *probedOracle) Allocate(flows []*netsim.Flow) {
	p.wholeSetOracle.Allocate(flows)
	p.log.record(flows)
}

// oracleEngine is the engine of spec on the whole-set oracle o, which
// alloc either is or wraps.
func oracleEngine(spec Spec, o *wholeSetOracle, alloc netsim.Allocator) *netsim.FluidEngine {
	o.m, o.ref, o.topo = spec.Model, spec.Ref, spec.Topo
	var tl *fault.Timeline
	if !spec.Faults.Empty() {
		tl = fault.Compile(spec.Faults)
		o.faults, o.tf.Faults = tl.State(), tl.State()
	}
	e := netsim.NewFluidEngine("oracle", spec.Ref, alloc)
	if tl != nil {
		e.SetFaults(tl)
	}
	return e
}

// arrival is one flow start of a churn run.
type arrival struct {
	at       float64
	src, dst graph.NodeID
	vol      float64
}

// drain starts every arrival at its time, advancing the engine in
// between so completions interleave with the starts, then runs to
// drain. It returns each flow's completion time by flow id.
func drain(t *testing.T, e *netsim.FluidEngine, arrivals []arrival) map[int]float64 {
	t.Helper()
	out := make(map[int]float64, len(arrivals))
	record := func(done []core.Completion) {
		for _, c := range done {
			out[c.Flow] = c.Time
		}
	}
	for _, a := range arrivals {
		for e.Now() < a.at {
			done, _ := e.Advance(a.at)
			record(done)
		}
		e.StartFlow(a.src, a.dst, a.vol, a.at)
	}
	// Every Advance to infinity completes a flow or stalls, so the
	// budget only trips on an engine that makes no progress.
	for budget := 4 * len(arrivals); len(out) < len(arrivals); budget-- {
		done, now := e.Advance(core.Inf)
		record(done)
		if budget == 0 || (len(done) == 0 && math.IsInf(now, 1)) {
			t.Fatalf("engine stalled with %d of %d flows done", len(out), len(arrivals))
		}
	}
	return out
}

// churnOps encodes the comms of g as FuzzModelChurn ops, one arrival
// every gap milliseconds.
func churnOps(g *graph.Graph, gap byte) []byte {
	var ops []byte
	for _, c := range g.Comms() {
		ops = append(ops, gap, byte(c.Src), byte(c.Dst), byte(min(c.Volume/1e5, 255)))
	}
	return ops
}

// churnFabrics are the fabrics FuzzModelChurn runs on: the crossbar
// and two fabrics, where the uplink fill reruns over every flow at
// every event (block placement makes hosts 0..15 cross switches).
var churnFabrics = []topology.Spec{
	{},
	{Kind: topology.Star, Switches: 4, HostsPerSwitch: 4, Place: topology.Block},
	{Kind: topology.FatTree, Switches: 4, HostsPerSwitch: 4, Oversub: 2, Place: topology.Block},
}

// FuzzModelChurn holds the model allocator to the whole-set oracle
// under fuzzed churn: flows start at staggered times with completions
// in between, for each of the five registry models, healthy or under a
// fuzzed fault schedule, on the crossbar and on two fabrics. The rate
// of every active flow after every allocation, and every completion
// time, must agree bitwise. ops is read four bytes per flow: arrival
// gap in milliseconds, source, destination and volume. Myrinet runs on
// six hosts, which keeps its state-set enumeration small.
func FuzzModelChurn(f *testing.F) {
	for i, name := range schemes.Names() {
		g, _ := schemes.Named(name)
		f.Add(uint8(i), uint8(0), "", churnOps(g, byte(i%3)))
	}
	gs, err := randgen.Schemes(20, 5, randgen.DefaultSchemeConfig())
	if err != nil {
		f.Fatal(err)
	}
	for i, g := range gs {
		f.Add(uint8(i), uint8(0), "", churnOps(g, 4))
		f.Add(uint8(i), uint8(0), "host 1 slow 0.5 at 0.003 until 0.06; host 3 slow 0.25 at 0.01", churnOps(g, 2))
		f.Add(uint8(i), uint8(1+i%2), "link 1 down at 0.005 until 0.04; host 5 slow 0.5 at 0", churnOps(g, 3))
	}
	f.Add(uint8(0), uint8(0), "host 2 slow 0 at 0.01 until 0.02; host 4194304 slow 0.5 at 0", []byte{0, 1, 2, 40, 0, 2, 3, 10, 3, 1, 4, 90, 0, 5, 1, 7, 1, 2, 5, 30})
	f.Fuzz(func(t *testing.T, modelIdx, fabric uint8, faultSrc string, ops []byte) {
		topo := churnFabrics[int(fabric)%len(churnFabrics)]
		var sched fault.Schedule
		if strings.TrimSpace(faultSrc) != "" {
			for _, src := range strings.Split(faultSrc, ";") {
				e, err := fault.ParseEvent(src)
				if err != nil {
					return
				}
				sched.Events = append(sched.Events, e)
			}
		}
		if sched.Validate(topo) != nil || sched.PermanentZero() >= 0 {
			return
		}
		names := ModelNames()
		name := names[int(modelIdx)%len(names)]
		m, sub, err := LookupModel(name)
		if err != nil {
			t.Fatal(err)
		}
		hosts := 16
		if name == "myrinet" {
			hosts = 6
		}
		var arrivals []arrival
		at := 0.0
		for i := 0; i+4 <= len(ops) && len(arrivals) < 64; i += 4 {
			at += float64(ops[i]) * 1e-3
			src, dst := int(ops[i+1])%hosts, int(ops[i+2])%hosts
			if src == dst {
				dst = (src + 1) % hosts
			}
			arrivals = append(arrivals, arrival{at: at, src: graph.NodeID(src), dst: graph.NodeID(dst), vol: 1e5 * (1 + float64(ops[i+3]))})
		}
		if len(arrivals) == 0 {
			return
		}
		// NewEngine's wiring, around a probed allocator.
		spec := Spec{Model: m, Ref: sub.RefRate(), Topo: topo, Faults: sched}
		var tl *fault.Timeline
		if !sched.Empty() {
			tl = fault.Compile(sched)
		}
		inc := &probedAllocator{modelAllocator: newModelAllocator(m, spec.Ref, spec.Topo, tl)}
		got := netsim.NewFluidEngine(spec.engineName(), spec.Ref, inc)
		if tl != nil {
			got.SetFaults(tl)
		}
		ref := &probedOracle{}
		gotT := drain(t, got, arrivals)
		wantT := drain(t, oracleEngine(spec, &ref.wholeSetOracle, ref), arrivals)
		if len(inc.log) != len(ref.log) {
			t.Fatalf("%s on %s: %d logged rates, oracle %d", name, topo, len(inc.log), len(ref.log))
		}
		for i := range ref.log {
			if inc.log[i] != ref.log[i] {
				t.Fatalf("%s on %s: logged rate %d is %.17g, oracle %.17g", name, topo, i, inc.log[i], ref.log[i])
			}
		}
		for id, want := range wantT {
			if gotT[id] != want {
				t.Fatalf("%s on %s: flow %d completes at %.17g, oracle at %.17g", name, topo, id, gotT[id], want)
			}
		}
	})
}

// TestCompositeReplayMatchesWholeSet replays seeded 20-job composite
// traces (randgen workloads, rank r on node r mod nodes, as the
// repository benchmark places them) on the predictor and on the
// whole-set oracle, and requires identical replay results: every
// task's times and the makespan, bitwise. Each trace runs on the
// crossbar over dual-core nodes, healthy and with NIC faults, and on a
// fat-tree with block placement, its 96 hosts given as many cores as
// the ranks need, healthy, with the same NIC faults and with a
// transient uplink outage.
func TestCompositeReplayMatchesWholeSet(t *testing.T) {
	cfg := randgen.DefaultTraceConfig()
	nicFaults := fault.Schedule{Events: []fault.Event{
		{Kind: fault.HostSlow, Target: 2, Factor: 0.5, At: 0.01, Until: 0.08},
		{Kind: fault.HostSlow, Target: 7, Factor: 0.25, At: 0.03},
	}}
	linkFault := fault.Schedule{Events: []fault.Event{
		{Kind: fault.LinkDown, Target: 1, At: 0.02, Until: 0.09},
	}}
	fatTree, err := topology.ParseSpec("fattree 6x16 oversub 2 place block")
	if err != nil {
		t.Fatal(err)
	}
	fabrics := []struct {
		topo   topology.Spec
		scheds []fault.Schedule
	}{
		{topology.Spec{}, []fault.Schedule{{}, nicFaults}},
		{fatTree, []fault.Schedule{{}, nicFaults, linkFault}},
	}
	for _, seed := range []int64{4711, 90210} {
		tr, err := randgen.WorkloadFromSeed(seed, 20, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, fab := range fabrics {
			nodes := (len(tr.Tasks) + 1) / 2
			if h := fab.topo.Hosts(); h > 0 {
				nodes = min(nodes, h)
			}
			clu := cluster.Default(nodes)
			clu.CoresPerNode = (len(tr.Tasks) + nodes - 1) / nodes
			place := make(cluster.Placement, len(tr.Tasks))
			for r := range place {
				place[r] = graph.NodeID(r % nodes)
			}
			for _, name := range []string{"gige", "infiniband", "kimlee", "linear"} {
				m, sub, err := LookupModel(name)
				if err != nil {
					t.Fatal(err)
				}
				var healthy *replay.Result
				for i, sched := range fab.scheds {
					spec := Spec{Model: m, Ref: sub.RefRate(), Topo: fab.topo, Faults: sched}
					e, err := NewEngine(spec)
					if err != nil {
						t.Fatal(err)
					}
					got, err := replay.Run(e, clu, place, tr)
					if err != nil {
						t.Fatal(err)
					}
					if got.NetTransfers == 0 {
						t.Fatalf("seed %d: no network transfers", seed)
					}
					if i == 0 {
						healthy = got
					} else if got.Makespan == healthy.Makespan {
						t.Errorf("seed %d %s on %s: faults %v leave the makespan as it is", seed, name, fab.topo, sched.Events)
					}
					o := &wholeSetOracle{}
					want, err := replay.Run(oracleEngine(spec, o, o), clu, place, tr)
					if err != nil {
						t.Fatal(err)
					}
					want.Engine = got.Engine
					if !reflect.DeepEqual(got, want) {
						t.Errorf("seed %d %s on %s, faults %v: replay differs from the whole-set oracle (makespan %.17g vs %.17g)",
							seed, name, fab.topo, sched.Events, got.Makespan, want.Makespan)
					}
				}
			}
		}
	}
}

// TestModelAllocatorSingleEngine: the model allocator tracks one
// engine's active set, so attaching it to a second engine panics.
func TestModelAllocatorSingleEngine(t *testing.T) {
	a := newModelAllocator(model.Linear{}, 1e8, topology.Spec{}, nil)
	netsim.NewFluidEngine("first", 1e8, a)
	defer func() {
		if recover() == nil {
			t.Error("a model allocator already attached to an engine was attached again")
		}
	}()
	netsim.NewFluidEngine("second", 1e8, a)
}
