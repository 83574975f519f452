package netsim

import (
	"math/rand"
	"testing"

	"bwshare/internal/graph"
	"bwshare/internal/topology"
)

// groupTopos are the fabrics the walk oracle runs on: the crossbar
// (sender and receiver NICs only) and two fabrics whose crossing flows
// also share edge uplinks and downlinks.
var groupTopos = []topology.Spec{
	{},
	{Kind: topology.Star, Switches: 4, HostsPerSwitch: 4, Place: topology.Block},
	{Kind: topology.FatTree, Switches: 8, HostsPerSwitch: 2, Oversub: 2, Place: topology.RoundRobin},
}

// randomGroupFlows draws 1..maxFlows flows over nodes ids 0..nodes-1,
// moving each endpoint to base+id with probability pHuge.
func randomGroupFlows(rng *rand.Rand, nodes, maxFlows int, base int, pHuge float64) []*Flow {
	id := func(v int) graph.NodeID {
		if rng.Float64() < pHuge {
			return graph.NodeID(base + v)
		}
		return graph.NodeID(v)
	}
	flows := make([]*Flow, 1+rng.Intn(maxFlows))
	for i := range flows {
		s := rng.Intn(nodes)
		d := (s + 1 + rng.Intn(nodes-1)) % nodes
		flows[i] = &Flow{ID: i, Src: id(s), Dst: id(d), Remaining: 1}
	}
	return flows
}

// TestDirtyWalkMatchesReference holds the tracker's walk to the map
// partition of the reference oracle, on the crossbar and on fabrics,
// with node ids past the dense range (the overflow maps) mixed in. A
// round starts a random flow set, whose components must all come out
// dirty, exactly as the reference partitions it; then a random subset
// departs, splitting components, and Dirty must yield exactly the
// reference components of the survivors that shared an element with a
// departed flow. Once warm, a walk allocates nothing.
func TestDirtyWalkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, topo := range groupTopos {
		name := topo.Kind.String()
		var tr DirtyTracker
		tr.idx.topo = topo
		for round := 0; round < 300; round++ {
			pHuge := 0.0
			if round%5 == 4 {
				pHuge = 0.2
			}
			tr.ActiveSetReset()
			flows := randomGroupFlows(rng, 2+rng.Intn(16), 24, maxDenseNode, pHuge)
			for _, f := range flows {
				tr.FlowStarted(f)
			}
			sameComponents(t, name+" starts", dirtyComponents(&tr, tr.Dirty(flows)), referenceComponents(topo, flows))
			tr.Clean()

			touched := make(map[componentKey]bool)
			var live []*Flow
			for _, f := range flows {
				if rng.Intn(3) > 0 {
					live = append(live, f)
					continue
				}
				tr.FlowFinished(f)
				for _, k := range flowKeys(topo, f) {
					touched[k] = true
				}
			}
			if len(live) > 0 {
				sameComponents(t, name+" departures", dirtyComponents(&tr, tr.Dirty(live)), touchedComponents(topo, live, touched))
				tr.Clean()
			}
		}

		flows := make([]*Flow, 32)
		tr.ActiveSetReset()
		for i := range flows {
			flows[i] = &Flow{ID: i, Src: graph.NodeID(i % 16), Dst: graph.NodeID((i*5 + 3) % 16), Remaining: 1}
			tr.FlowStarted(flows[i])
		}
		walk := func() {
			for _, f := range flows {
				tr.FlowFinished(f)
				tr.FlowStarted(f)
			}
			tr.Dirty(flows)
			tr.Clean()
		}
		walk()
		if allocs := testing.AllocsPerRun(50, walk); allocs != 0 {
			t.Errorf("%v: a warm walk allocates %v per call, want 0", topo.Kind, allocs)
		}
	}
}
