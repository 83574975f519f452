package netsim

import (
	"math"
	"testing"

	"bwshare/internal/graph"
	"bwshare/internal/measure"
	"bwshare/internal/randgen"
	"bwshare/internal/topology"
)

// Differential tests: the dense-indexed fill must reproduce the retained
// reference implementations bit for bit. Configurations mirror the
// three substrates: GigE (full pause coupling), InfiniBand (partial
// credit coupling) and the pure max-min ablation used by the
// Myrinet-style fluid baseline.
var substrateConfigs = []struct {
	name string
	cfg  CoupledConfig
}{
	{"gige", CoupledConfig{LineRate: 125e6, FlowCap: 0.75 * 125e6, RxCap: 125e6, Coupling: 1, CouplingThreshold: 1.7}},
	{"infiniband", CoupledConfig{LineRate: 1000e6, FlowCap: 0.8625 * 1000e6, RxCap: 1.13 * 1000e6, Coupling: 0.65}},
	{"maxmin", CoupledConfig{LineRate: 250e6, FlowCap: 250e6, RxCap: 250e6, Coupling: 0}},
}

const equivSeeds = 120 // >= 100 random schemes per substrate

func schemeFlows(t testing.TB, g *graph.Graph) []*Flow {
	t.Helper()
	flows := make([]*Flow, g.Len())
	for _, c := range g.Comms() {
		flows[c.ID] = &Flow{ID: int(c.ID), Src: c.Src, Dst: c.Dst, Remaining: c.Volume}
	}
	return flows
}

// waterFill runs the dense progressive fill (denseFill.run) over flows
// under a per-flow cap and per-node NIC capacities from senderCap and
// recvCap, defSend/defRecv for missing entries: the signature of
// referenceWaterFill, so the property and safety tests can run the two
// side by side.
func waterFill(flows []*Flow, flowCap float64, senderCap, recvCap map[graph.NodeID]float64, defSend, defRecv float64) {
	waterFillTopo(flows, flowCap, senderCap, recvCap, defSend, defRecv, topology.Spec{}, 0)
}

// waterFillTopo is waterFill with the fabric's uplink constraints
// (denseFill.runTopo), the dense counterpart of referenceWaterFillTopo
// on a healthy fabric. A trivial topology is exactly waterFill.
func waterFillTopo(flows []*Flow, flowCap float64, senderCap, recvCap map[graph.NodeID]float64, defSend, defRecv float64, topo topology.Spec, hostRate float64) {
	var sc fillScratch
	sc.begin()
	d := &sc.d
	for _, f := range flows {
		si, fresh := sc.snd.intern(int(f.Src))
		if fresh {
			c := capOf(senderCap, f.Src, defSend)
			d.sndLeft = append(d.sndLeft, c)
			d.sndOrig = append(d.sndOrig, c)
			d.sndCount = append(d.sndCount, 0)
		}
		d.sndCount[si]++
		d.sidx = append(d.sidx, si)
		ri, fresh := sc.rcv.intern(int(f.Dst))
		if fresh {
			c := capOf(recvCap, f.Dst, defRecv)
			d.rcvLeft = append(d.rcvLeft, c)
			d.rcvOrig = append(d.rcvOrig, c)
			d.rcvCount = append(d.rcvCount, 0)
		}
		d.rcvCount[ri]++
		d.ridx = append(d.ridx, ri)
	}
	if topo.Trivial() {
		d.run(flows, flowCap)
		return
	}
	prepTopoLinks(&sc, flows, topo, topo.UplinkCap(hostRate), nil)
	d.runTopo(flows, flowCap)
}

// waterFillChecked runs waterFill over flows and referenceWaterFill over
// a copy beside it, failing t unless the two agree bitwise.
func waterFillChecked(t testing.TB, flows []*Flow, flowCap float64, senderCap, recvCap map[graph.NodeID]float64, defSend, defRecv float64) {
	t.Helper()
	ref := make([]*Flow, len(flows))
	for i, f := range flows {
		c := *f
		ref[i] = &c
	}
	waterFill(flows, flowCap, senderCap, recvCap, defSend, defRecv)
	referenceWaterFill(ref, flowCap, senderCap, recvCap, defSend, defRecv)
	for i, f := range flows {
		if f.Rate != ref[i].Rate {
			t.Fatalf("flow %d: dense %.17g ref %.17g", f.ID, f.Rate, ref[i].Rate)
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return d
	}
	return d / m
}

// TestCoupledAllocatorMatchesReference: the whole-set dense coupled fill
// (coupledDenseAllocate) equals the reference bitwise on >= 100 random
// schemes for every substrate configuration. One scratch is reused
// across all schemes, so scratch recycling across epochs is exercised
// too.
func TestCoupledAllocatorMatchesReference(t *testing.T) {
	schemes, err := randgen.Schemes(1, equivSeeds, randgen.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range substrateConfigs {
		var sc fillScratch
		for si, g := range schemes {
			a := schemeFlows(t, g)
			b := schemeFlows(t, g)
			coupledDenseAllocate(sub.cfg, a, &sc)
			referenceCoupledTopoAllocate(sub.cfg, b)
			for i := range a {
				if a[i].Rate != b[i].Rate {
					t.Fatalf("%s scheme %d flow %d: dense %.17g ref %.17g",
						sub.name, si, i, a[i].Rate, b[i].Rate)
				}
			}
		}
	}
}

// TestWaterFillMatchesReference: the dense fill equals the reference
// bitwise under randomized per-node capacity maps (including missing
// entries resolved by the defaults).
func TestWaterFillMatchesReference(t *testing.T) {
	schemes, err := randgen.Schemes(2, equivSeeds, randgen.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := randgen.NewRand(99)
	for si, g := range schemes {
		a := schemeFlows(t, g)
		b := schemeFlows(t, g)
		sndCap := map[graph.NodeID]float64{}
		rcvCap := map[graph.NodeID]float64{}
		for _, n := range g.Nodes() {
			if rng.Float64() < 0.5 { // half the nodes fall back to defaults
				sndCap[n] = 0.5 + rng.Float64()
			}
			if rng.Float64() < 0.5 {
				rcvCap[n] = 0.5 + rng.Float64()
			}
		}
		flowCap := 0.25 + rng.Float64()
		waterFill(a, flowCap, sndCap, rcvCap, 1, 1.1)
		referenceWaterFill(b, flowCap, sndCap, rcvCap, 1, 1.1)
		for i := range a {
			if a[i].Rate != b[i].Rate {
				t.Fatalf("scheme %d flow %d: dense %.17g ref %.17g", si, i, a[i].Rate, b[i].Rate)
			}
		}
	}
}

// TestFluidEngineMatchesReferenceAllocator: whole-run equivalence of the
// whole-set dense fill and the reference, through the engine's Flow
// struct recycling, which the direct-fill tests do not touch.
func TestFluidEngineMatchesReferenceAllocator(t *testing.T) {
	schemes, err := randgen.Schemes(3, equivSeeds, randgen.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range substrateConfigs {
		ref := sub.cfg.FlowCap
		// One engine per substrate, reused (with Reset inside
		// measure.Run) across every scheme.
		optEng := NewFluidEngine(sub.name, ref, &denseCoupled{Cfg: sub.cfg})
		refEng := NewFluidEngine(sub.name, ref, &coupledOracle{Cfg: sub.cfg})
		for si, g := range schemes {
			ra := measure.Run(optEng, g)
			rb := measure.Run(refEng, g)
			for i := range ra.Times {
				if ra.Times[i] != rb.Times[i] {
					t.Fatalf("%s scheme %d comm %d: dense time %.17g ref %.17g",
						sub.name, si, i, ra.Times[i], rb.Times[i])
				}
			}
		}
	}
}

// TestAllocateSteadyStateZeroAllocs: the PR-2 acceptance criterion — a
// warmed-up dense coupled fill does zero heap allocation per call.
func TestAllocateSteadyStateZeroAllocs(t *testing.T) {
	g, err := randgen.SchemeFromSeed(7, randgen.SchemeConfig{
		MinNodes: 16, MaxNodes: 16, MinComms: 32, MaxComms: 32,
		MaxOut: 4, MaxIn: 4, MinVolume: 1e6, MaxVolume: 20e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	flows := schemeFlows(t, g)
	cfg := substrateConfigs[0].cfg
	var sc fillScratch
	coupledDenseAllocate(cfg, flows, &sc) // warm the scratch
	if avg := testing.AllocsPerRun(100, func() { coupledDenseAllocate(cfg, flows, &sc) }); avg != 0 {
		t.Errorf("coupledDenseAllocate allocates %.1f objects/op in steady state, want 0", avg)
	}
}

// TestDenseFallbackHugeNodeIDs: endpoints beyond the dense table range
// are interned through the overflow maps, not sent down a separate
// fallback path, and still produce reference-equal rates from the
// incremental allocator, the whole-set dense fill and the plain
// progressive fill.
func TestDenseFallbackHugeNodeIDs(t *testing.T) {
	huge := graph.NodeID(maxDenseNode + 5)
	mk := func() []*Flow {
		return []*Flow{
			{ID: 0, Src: huge, Dst: 1},
			{ID: 1, Src: huge, Dst: 2},
			{ID: 2, Src: 3, Dst: 2},
		}
	}
	for _, sub := range substrateConfigs {
		ref := mk()
		(&coupledOracle{Cfg: sub.cfg}).Allocate(ref)
		for _, opt := range []struct {
			name  string
			alloc Allocator
		}{
			{"incremental", &IncrementalAllocator{Cfg: sub.cfg}},
			{"dense", &denseCoupled{Cfg: sub.cfg}},
		} {
			a := mk()
			opt.alloc.Allocate(a)
			for i := range a {
				if a[i].Rate != ref[i].Rate {
					t.Fatalf("%s %s flow %d: opt %g ref %g", sub.name, opt.name, i, a[i].Rate, ref[i].Rate)
				}
			}
		}
	}
	a, b := mk(), mk()
	waterFill(a, 0.75, nil, nil, 1, 1)
	referenceWaterFill(b, 0.75, nil, nil, 1, 1)
	for i := range a {
		if a[i].Rate != b[i].Rate {
			t.Fatalf("waterfill flow %d: opt %g ref %g", i, a[i].Rate, b[i].Rate)
		}
	}
}

// TestSharedAllocatorRefused: attaching one observing allocator to two
// engines would corrupt its tracked partition, so the second attach
// panics.
func TestSharedAllocatorRefused(t *testing.T) {
	alloc := &IncrementalAllocator{Cfg: substrateConfigs[0].cfg}
	NewFluidEngine("a", 1, alloc)
	defer func() {
		if recover() == nil {
			t.Fatal("second NewFluidEngine with the same allocator did not panic")
		}
	}()
	NewFluidEngine("b", 1, alloc)
}

// TestDirectAllocateWhileAttachedRefused: an engine-attached allocator
// invoked directly with a foreign flow set trips the tracked-count
// consistency guard instead of silently computing wrong rates.
func TestDirectAllocateWhileAttachedRefused(t *testing.T) {
	alloc := &IncrementalAllocator{Cfg: substrateConfigs[0].cfg}
	e := NewFluidEngine("a", 1, alloc)
	e.StartFlow(0, 1, 100, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("direct Allocate with a foreign flow set did not panic")
		}
	}()
	alloc.Allocate([]*Flow{{ID: 9, Src: 2, Dst: 3}, {ID: 10, Src: 2, Dst: 4}})
}
