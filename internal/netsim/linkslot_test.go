package netsim

import (
	"math"
	"testing"

	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/topology"
)

// Tests for the link numbering: a fabric link's slot is its switch id
// (uplink sw, downlink Switches+sw), in the tracker's slot index and in
// TopoFiller's table.

// largestFabric has topology.MaxSwitches edge switches, so its last
// downlink has the highest link slot any fabric can give.
var largestFabric = topology.Spec{Kind: topology.FatTree, Switches: topology.MaxSwitches, HostsPerSwitch: 1, Oversub: 1, Place: topology.Block}

// TestLargestSwitchLinkSlots: on the largest fabric, flows into and out
// of switch 4095 with a link fault on it take the last link slots, and
// both fabric fills still match their map-based oracles bitwise:
// TopoFiller against referenceCapsFill, IncrementalAllocator against
// componentOracle.
func TestLargestSwitchLinkSlots(t *testing.T) {
	spec := largestFabric
	last := spec.Switches - 1

	var tr DirtyTracker
	tr.idx.topo = spec
	tr.ActiveSetReset()
	in := &Flow{ID: 0, Src: 0, Dst: graph.NodeID(last), Remaining: 1}
	out := &Flow{ID: 1, Src: graph.NodeID(last), Dst: 7, Remaining: 1}
	tr.FlowStarted(in)
	tr.FlowStarted(out)
	if got, want := in.slot[3], int32(2*spec.Switches-1); got != want {
		t.Fatalf("downlink of switch %d: slot %d, want %d", last, got, want)
	}
	if got, want := out.slot[2], int32(last); got != want {
		t.Fatalf("uplink of switch %d: slot %d, want %d", last, got, want)
	}
	if in.slot[0] < int32(2*spec.Switches) || out.slot[1] < int32(2*spec.Switches) {
		t.Fatalf("NIC slots %v %v overlap the %d link slots", in.slot, out.slot, 2*spec.Switches)
	}
	tr.Dirty([]*Flow{in, out})
	tr.Clean()
	tr.FaultTargetsChanged([]fault.Target{{Kind: fault.TargetLink, ID: last}})
	if got := tr.Dirty([]*Flow{in, out}); len(got) != 2 {
		t.Fatalf("link fault on switch %d dirtied %d flows, want both", last, len(got))
	}
	tr.Clean()

	sched := fault.Schedule{Events: []fault.Event{{Kind: fault.LinkDegrade, Target: last, Factor: 0.3, At: 0.004, Until: 0.05}}}
	if err := sched.Validate(spec); err != nil {
		t.Fatal(err)
	}

	// TopoFiller, with the fault in force.
	tf := TopoFiller{Faults: fault.Compile(fault.Schedule{Events: []fault.Event{{Kind: fault.LinkDegrade, Target: last, Factor: 0.3}}}).State()}
	ends := [][2]graph.NodeID{{0, graph.NodeID(last)}, {1, graph.NodeID(last)}, {graph.NodeID(last), 2}, {3, graph.NodeID(last)}, {5, 6}}
	const host = 1.25e8
	caps := []float64{host, host / 2, host, host / 3, host}
	a := make([]*Flow, len(ends))
	b := make([]*Flow, len(ends))
	for i, e := range ends {
		a[i] = &Flow{ID: i, Src: e[0], Dst: e[1], Rate: caps[i]}
		b[i] = &Flow{ID: i, Src: e[0], Dst: e[1], Rate: caps[i]}
	}
	tf.Apply(a, spec, host)
	referenceCapsFill(b, caps, spec, spec.UplinkCap(host), tf.Faults)
	for i := range a {
		if a[i].Rate != b[i].Rate {
			t.Fatalf("TopoFiller flow %d: dense %.17g ref %.17g", i, a[i].Rate, b[i].Rate)
		}
	}

	// IncrementalAllocator under the same fault, over its whole window.
	for _, sub := range churnSubstrates {
		cfg := sub.cfg
		cfg.Topo = spec
		var arrivals []arrival
		for i, e := range ends {
			arrivals = append(arrivals, arrival{at: float64(i) * 2e-3, src: e[0], dst: e[1], vol: 2e6 * float64(i+1)})
		}
		inc := runCollect(t, faultedEngine("inc", cfg, sched, false), arrivals)
		ref := runCollect(t, faultedEngine("ref", cfg, sched, true), arrivals)
		if len(inc) != len(arrivals) || len(ref) != len(arrivals) {
			t.Fatalf("%s: drained %d (incremental) and %d (oracle) of %d flows", sub.name, len(inc), len(ref), len(arrivals))
		}
		for id, want := range ref {
			if got := inc[id]; got != want {
				t.Fatalf("%s flow %d: incremental completes at %.17g, oracle at %.17g", sub.name, id, got, want)
			}
		}
	}
}

// TestLinkFaultOffPathMovesNothing: a link fault on a switch no active
// flow crosses dirties nothing, and the flows complete exactly as on
// the healthy fabric. Every link has a slot from the start of the run,
// so the fault's slots exist but load no flow.
func TestLinkFaultOffPathMovesNothing(t *testing.T) {
	for _, fab := range churnFabrics[1:] {
		spec := fab.spec
		off := spec.Switches - 1
		// Flows between the hosts of switches 0 and 1 only.
		var ends [][2]graph.NodeID
		var hosts [2][]graph.NodeID
		for n := graph.NodeID(0); int(n) < spec.Hosts(); n++ {
			if sw := spec.SwitchOf(n); sw < 2 {
				hosts[sw] = append(hosts[sw], n)
			}
		}
		for i, s := range hosts[0] {
			ends = append(ends, [2]graph.NodeID{s, hosts[1][i%len(hosts[1])]})
		}
		ends = append(ends, [2]graph.NodeID{hosts[1][0], hosts[0][0]})

		var tr DirtyTracker
		tr.idx.topo = spec
		tr.ActiveSetReset()
		var flows []*Flow
		for i, e := range ends {
			f := &Flow{ID: i, Src: e[0], Dst: e[1], Remaining: 1}
			flows = append(flows, f)
			tr.FlowStarted(f)
		}
		tr.Dirty(flows)
		tr.Clean()
		tr.FaultTargetsChanged([]fault.Target{{Kind: fault.TargetLink, ID: off}})
		if got := tr.Dirty(flows); len(got) != 0 {
			t.Fatalf("%s: a fault on idle switch %d dirtied %d flows", fab.name, off, len(got))
		}
		tr.Clean()

		var arrivals []arrival
		for i, e := range ends {
			arrivals = append(arrivals, arrival{at: float64(i) * 1e-3, src: e[0], dst: e[1], vol: 3e6})
		}
		down := fault.Schedule{Events: []fault.Event{{Kind: fault.LinkDown, Target: off, At: 0.002, Until: 0.04}}}
		cfg := churnSubstrates[0].cfg
		cfg.Topo = spec
		faulted := runCollect(t, faultedEngine("down", cfg, down, false), arrivals)
		healthy := runCollect(t, faultedEngine("healthy", cfg, fault.Schedule{}, false), arrivals)
		for id, want := range healthy {
			if got := faulted[id]; got != want {
				t.Fatalf("%s flow %d: completes at %.17g with switch %d down, %.17g healthy", fab.name, id, got, off, want)
			}
		}
	}
}

// TestTopoFillerIgnoresEarlierFills: TopoFiller's link table outlives a
// fill, and a fill that stops with flows unfrozen (here every ceiling
// and link is infinite) leaves counts on its slots. The next fill on the
// same filler must open each slot it loads afresh and still match
// referenceCapsFill bitwise.
func TestTopoFillerIgnoresEarlierFills(t *testing.T) {
	spec := topology.Spec{Kind: topology.FatTree, Switches: 4, HostsPerSwitch: 4, Oversub: 2, Place: topology.Block}
	ends := [][2]graph.NodeID{{0, 4}, {1, 5}, {2, 9}, {4, 0}, {8, 13}, {12, 1}, {3, 2}}
	mk := func(rate float64) []*Flow {
		fl := make([]*Flow, len(ends))
		for i, e := range ends {
			fl[i] = &Flow{ID: i, Src: e[0], Dst: e[1], Rate: rate}
		}
		return fl
	}
	var tf TopoFiller
	tf.Apply(mk(math.Inf(1)), spec, math.Inf(1))

	const host = 1.25e8
	a, b := mk(host), mk(host)
	caps := make([]float64, len(ends))
	for i := range caps {
		caps[i] = host
	}
	tf.Apply(a, spec, host)
	referenceCapsFill(b, caps, spec, spec.UplinkCap(host), nil)
	for i := range a {
		if a[i].Rate != b[i].Rate {
			t.Fatalf("flow %d after an unfinished fill: dense %.17g ref %.17g", i, a[i].Rate, b[i].Rate)
		}
	}
}
