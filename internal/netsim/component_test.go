package netsim

import (
	"math/rand"
	"testing"

	"bwshare/internal/graph"
	"bwshare/internal/topology"
)

// groupTopos are the fabrics the grouping oracle runs on: the crossbar
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

// sameGrouping fails unless g's last grouping (n components) is the
// reference partition of flows: same components, same order, same
// flows in the same order.
func sameGrouping(t *testing.T, what string, g *componentGrouper, n int, topo topology.Spec, flows []*Flow) {
	t.Helper()
	want := referenceComponents(topo, flows)
	if n != len(want) {
		t.Fatalf("%s: %d components, want %d", what, n, len(want))
	}
	for c, comp := range want {
		got := g.component(c)
		if len(got) != len(comp) {
			t.Fatalf("%s: component %d has %d flows, want %d", what, c, len(got), len(comp))
		}
		for i := range comp {
			if got[i] != comp[i] {
				t.Fatalf("%s: component %d flow %d differs", what, c, i)
			}
		}
	}
}

// TestComponentGrouperMatchesReference holds the exact grouper to the
// map partition of the reference oracle: one grouper over a sequence of
// growing and shrinking random flow sets on the crossbar and on fabrics
// (so no slot claim survives from an earlier grouping), with node ids
// past the dense range (the map fallback) mixed in, and as
// IncrementalAllocator drives it — on a dirty subset of a larger active
// set whose persistent index over-merges after departures. Once warm,
// grouping allocates nothing.
func TestComponentGrouperMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, topo := range groupTopos {
		var g componentGrouper
		gx := slotIndex{topo: topo} // the grouper's slot interning across rounds
		for round := 0; round < 300; round++ {
			pHuge := 0.0
			if round%5 == 4 {
				pHuge = 0.2
			}
			flows := randomGroupFlows(rng, 2+rng.Intn(16), 24, maxDenseNode, pHuge)
			sameGrouping(t, topo.Kind.String(), &g, g.group(&gx, flows), topo, flows)
		}

		// Dirty subsets: a persistent index links every active flow,
		// then loses some (its unions stay), and the grouper partitions
		// a subset of the survivors through that index.
		x := slotIndex{topo: topo}
		var sub componentGrouper
		for round := 0; round < 200; round++ {
			active := randomGroupFlows(rng, 2+rng.Intn(24), 40, 0, 0)
			for _, f := range active {
				x.link(f)
			}
			var dirty []*Flow
			for _, f := range active {
				if rng.Intn(3) > 0 {
					dirty = append(dirty, f)
				}
			}
			n := sub.group(&x, dirty)
			sameGrouping(t, topo.Kind.String()+" dirty subset", &sub, n, topo, dirty)
			sub.drop()
			if round%50 == 49 {
				x.reset()
			}
		}

		flows := make([]*Flow, 32)
		for i := range flows {
			flows[i] = &Flow{Src: graph.NodeID(i % 16), Dst: graph.NodeID((i*5 + 3) % 16), Remaining: 1}
		}
		if allocs := testing.AllocsPerRun(50, func() { g.group(&gx, flows) }); allocs != 0 {
			t.Errorf("%v: grouping allocates %v per call, want 0", topo.Kind, allocs)
		}
	}
}
