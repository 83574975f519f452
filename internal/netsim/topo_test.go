package netsim

import (
	"testing"

	"bwshare/internal/graph"
	"bwshare/internal/measure"
	"bwshare/internal/randgen"
	"bwshare/internal/topology"
)

// topoSpecs are the non-trivial fabrics the differential tests sweep;
// sized so the random schemes (4..12 nodes) fit, with both placements.
var topoSpecs = []topology.Spec{
	{Kind: topology.Star, Switches: 4, HostsPerSwitch: 3, Place: topology.Block},
	{Kind: topology.Star, Switches: 3, HostsPerSwitch: 4, Place: topology.RoundRobin},
	{Kind: topology.FatTree, Switches: 4, HostsPerSwitch: 3, Oversub: 2, Place: topology.Block},
	{Kind: topology.FatTree, Switches: 2, HostsPerSwitch: 6, Oversub: 4, Place: topology.RoundRobin},
	{Kind: topology.FatTree, Switches: 6, HostsPerSwitch: 2, Oversub: 1, Place: topology.Block},
}

// TestCrossbarTopoBitIdentical is the PR-4 acceptance differential: over
// >= 50 seeded schemes and every substrate configuration, an allocator
// given the explicit single-crossbar topology produces rates that are
// bit-identical (==, no tolerance) to the topology-free allocator.
func TestCrossbarTopoBitIdentical(t *testing.T) {
	schemes, err := randgen.Schemes(4, 60, randgen.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range substrateConfigs {
		plain := &denseCoupled{Cfg: sub.cfg}
		cfgTopo := sub.cfg
		cfgTopo.Topo = topology.Spec{} // explicit crossbar
		withTopo := &denseCoupled{Cfg: cfgTopo}
		for si, g := range schemes {
			a := schemeFlows(t, g)
			b := schemeFlows(t, g)
			plain.Allocate(a)
			withTopo.Allocate(b)
			for i := range a {
				if a[i].Rate != b[i].Rate {
					t.Fatalf("%s scheme %d flow %d: crossbar topo changed the rate: %.17g vs %.17g",
						sub.name, si, i, b[i].Rate, a[i].Rate)
				}
			}
		}
	}
}

// TestNonCrossingTopoBitIdentical: a fabric large enough that every
// scheme lands on one edge switch exercises runTopo's full code path
// with no crossing flow — the rates must still be bit-identical to the
// crossbar routine (runTopo adds no floating-point operations for
// intra-switch flows).
func TestNonCrossingTopoBitIdentical(t *testing.T) {
	schemes, err := randgen.Schemes(5, 60, randgen.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Block placement with 512 hosts per switch puts every node of a
	// <= 12-node scheme on switch 0.
	wide := topology.Spec{Kind: topology.FatTree, Switches: 2, HostsPerSwitch: 512, Oversub: 2, Place: topology.Block}
	for _, sub := range substrateConfigs {
		plain := &denseCoupled{Cfg: sub.cfg}
		cfgTopo := sub.cfg
		cfgTopo.Topo = wide
		withTopo := &denseCoupled{Cfg: cfgTopo}
		for si, g := range schemes {
			a := schemeFlows(t, g)
			b := schemeFlows(t, g)
			plain.Allocate(a)
			withTopo.Allocate(b)
			for i := range a {
				if a[i].Rate != b[i].Rate {
					t.Fatalf("%s scheme %d flow %d: non-crossing fabric changed the rate: %.17g vs %.17g",
						sub.name, si, i, b[i].Rate, a[i].Rate)
				}
			}
		}
	}
}

// TestTopoAllocatorMatchesReference: dense topology-aware rates equal
// the retained map-based reference bitwise on >= 50 random schemes for
// every (substrate, fabric) pair. One scratch is reused across all
// schemes, exercising recycling of the link tables.
func TestTopoAllocatorMatchesReference(t *testing.T) {
	schemes, err := randgen.Schemes(6, 60, randgen.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range substrateConfigs {
		for _, spec := range topoSpecs {
			cfg := sub.cfg
			cfg.Topo = spec
			opt := &denseCoupled{Cfg: cfg}
			ref := &coupledOracle{Cfg: cfg}
			for si, g := range schemes {
				a := schemeFlows(t, g)
				b := schemeFlows(t, g)
				opt.Allocate(a)
				ref.Allocate(b)
				for i := range a {
					if a[i].Rate != b[i].Rate {
						t.Fatalf("%s %s scheme %d flow %d: dense %.17g ref %.17g",
							sub.name, spec, si, i, a[i].Rate, b[i].Rate)
					}
				}
			}
		}
	}
}

// TestWaterFillTopoMatchesReference: the dense topology fill equals the
// map-based reference bitwise under randomized capacity maps and every
// fabric.
func TestWaterFillTopoMatchesReference(t *testing.T) {
	schemes, err := randgen.Schemes(7, 60, randgen.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := randgen.NewRand(17)
	for _, spec := range topoSpecs {
		for si, g := range schemes {
			a := schemeFlows(t, g)
			b := schemeFlows(t, g)
			sndCap := map[graph.NodeID]float64{}
			rcvCap := map[graph.NodeID]float64{}
			for _, n := range g.Nodes() {
				if rng.Float64() < 0.5 {
					sndCap[n] = 0.5 + rng.Float64()
				}
				if rng.Float64() < 0.5 {
					rcvCap[n] = 0.5 + rng.Float64()
				}
			}
			flowCap := 0.25 + rng.Float64()
			host := 0.5 + rng.Float64()
			waterFillTopo(a, flowCap, sndCap, rcvCap, 1, 1.1, spec, host)
			referenceWaterFillTopo(b, flowCap, sndCap, rcvCap, 1, 1.1, spec, host, nil)
			for i := range a {
				if a[i].Rate != b[i].Rate {
					t.Fatalf("%s scheme %d flow %d: dense %.17g ref %.17g",
						spec, si, i, a[i].Rate, b[i].Rate)
				}
			}
		}
	}
}

// TestTopoEngineMatchesReference: whole-run equivalence through a
// FluidEngine, exercising flow recycling together with the link tables.
func TestTopoEngineMatchesReference(t *testing.T) {
	schemes, err := randgen.Schemes(8, 60, randgen.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range substrateConfigs {
		for _, spec := range topoSpecs {
			cfg := sub.cfg
			cfg.Topo = spec
			optEng := NewFluidEngine(sub.name, cfg.FlowCap, &denseCoupled{Cfg: cfg})
			refEng := NewFluidEngine(sub.name, cfg.FlowCap, &coupledOracle{Cfg: cfg})
			for si, g := range schemes {
				ra := measure.Run(optEng, g)
				rb := measure.Run(refEng, g)
				for i := range ra.Times {
					if ra.Times[i] != rb.Times[i] {
						t.Fatalf("%s %s scheme %d comm %d: dense %.17g ref %.17g",
							sub.name, spec, si, i, ra.Times[i], rb.Times[i])
					}
				}
			}
		}
	}
}

// TestTopoOversubscriptionBinds: a hand-sized scenario where the uplink
// is the binding constraint. Two hosts per switch, both sending full
// tilt across the core of a star (uplink = one single-flow reference
// rate, i.e. FlowCap): each flow gets exactly half the uplink instead
// of its NIC-level cap.
func TestTopoOversubscriptionBinds(t *testing.T) {
	cfg := CoupledConfig{
		LineRate: 100, FlowCap: 75, RxCap: 100,
		Topo: topology.Spec{Kind: topology.Star, Switches: 2, HostsPerSwitch: 2, Place: topology.Block},
	}
	flows := []*Flow{
		{ID: 0, Src: 0, Dst: 2}, // switch 0 -> switch 1
		{ID: 1, Src: 1, Dst: 3}, // switch 0 -> switch 1
	}
	(&denseCoupled{Cfg: cfg}).Allocate(flows)
	for i, f := range flows {
		if d := relDiff(f.Rate, 37.5); d > 1e-9 {
			t.Errorf("flow %d rate %g, want 37.5 (uplink 75 shared two ways)", i, f.Rate)
		}
	}
	// Same flows on a crossbar reach the per-flow cap.
	cfg.Topo = topology.Spec{}
	flows2 := []*Flow{{ID: 0, Src: 0, Dst: 2}, {ID: 1, Src: 1, Dst: 3}}
	(&denseCoupled{Cfg: cfg}).Allocate(flows2)
	for i, f := range flows2 {
		if f.Rate != 75 {
			t.Errorf("crossbar flow %d rate %g, want 75", i, f.Rate)
		}
	}
}

// TestTopoFiller: intra-switch flows keep their model-given rate,
// crossing flows share the uplink max-min under their caps.
func TestTopoFiller(t *testing.T) {
	spec := topology.Spec{Kind: topology.Star, Switches: 2, HostsPerSwitch: 2, Place: topology.Block}
	flows := []*Flow{
		{ID: 0, Src: 0, Dst: 1, Rate: 90}, // intra-switch: untouched
		{ID: 1, Src: 0, Dst: 2, Rate: 80}, // crossing
		{ID: 2, Src: 1, Dst: 3, Rate: 40}, // crossing
	}
	var tf TopoFiller
	tf.Apply(flows, spec, 100) // uplink capacity 100
	if flows[0].Rate != 90 {
		t.Errorf("intra-switch rate %g, want 90", flows[0].Rate)
	}
	// Max-min on the 100-unit uplink with caps 80 and 40: flow 2 freezes
	// at its cap 40, flow 1 takes min(80, 100-40) = 60.
	if d := relDiff(flows[2].Rate, 40); d > 1e-9 {
		t.Errorf("crossing flow capped at 40 got %g", flows[2].Rate)
	}
	if d := relDiff(flows[1].Rate, 60); d > 1e-9 {
		t.Errorf("crossing flow got %g, want 60", flows[1].Rate)
	}
	// Trivial topology leaves everything alone.
	flows[0].Rate, flows[1].Rate, flows[2].Rate = 1, 2, 3
	tf.Apply(flows, topology.Spec{}, 100)
	if flows[0].Rate != 1 || flows[1].Rate != 2 || flows[2].Rate != 3 {
		t.Errorf("crossbar Apply mutated rates: %v %v %v", flows[0].Rate, flows[1].Rate, flows[2].Rate)
	}
}

// TestTopoSteadyStateZeroAllocs: the PR-4 acceptance criterion — the
// topology-aware hot path allocates nothing once warmed, matching the
// crossbar path's PR-2 guarantee.
func TestTopoSteadyStateZeroAllocs(t *testing.T) {
	g, err := randgen.SchemeFromSeed(7, randgen.SchemeConfig{
		MinNodes: 16, MaxNodes: 16, MinComms: 32, MaxComms: 32,
		MaxOut: 4, MaxIn: 4, MinVolume: 1e6, MaxVolume: 20e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := topology.Spec{Kind: topology.FatTree, Switches: 4, HostsPerSwitch: 4, Oversub: 4, Place: topology.Block}
	flows := schemeFlows(t, g)
	cfg := substrateConfigs[0].cfg
	cfg.Topo = spec
	var sc fillScratch
	coupledDenseAllocate(cfg, flows, &sc) // warm the scratch
	if avg := testing.AllocsPerRun(100, func() { coupledDenseAllocate(cfg, flows, &sc) }); avg != 0 {
		t.Errorf("topo coupledDenseAllocate allocates %.1f objects/op in steady state, want 0", avg)
	}
	var tf TopoFiller
	tf.Apply(flows, spec, 125e6)
	if avg := testing.AllocsPerRun(100, func() { tf.Apply(flows, spec, 125e6) }); avg != 0 {
		t.Errorf("TopoFiller.Apply allocates %.1f objects/op in steady state, want 0", avg)
	}
}

// TestTopoDenseFallbackHugeNodeIDs: on a star fabric, endpoints beyond
// the dense table range are interned like any other and agree with the
// map-based reference.
func TestTopoDenseFallbackHugeNodeIDs(t *testing.T) {
	spec := topology.Spec{Kind: topology.Star, Switches: 4, HostsPerSwitch: 3, Place: topology.RoundRobin}
	huge := graph.NodeID(maxDenseNode + 5)
	mk := func() []*Flow {
		return []*Flow{
			{ID: 0, Src: huge, Dst: 1},
			{ID: 1, Src: huge, Dst: 2},
			{ID: 2, Src: 3, Dst: 2},
		}
	}
	cfg := substrateConfigs[0].cfg
	cfg.Topo = spec
	a, b := mk(), mk()
	(&IncrementalAllocator{Cfg: cfg}).Allocate(a)
	(&coupledOracle{Cfg: cfg}).Allocate(b)
	for i := range a {
		if a[i].Rate != b[i].Rate {
			t.Fatalf("flow %d: opt %g ref %g", i, a[i].Rate, b[i].Rate)
		}
	}
}
