package predict

import (
	"math/rand"
	"testing"

	"bwshare/internal/graph"
	"bwshare/internal/model"
	"bwshare/internal/netsim"
	"bwshare/internal/topology"
)

// referenceComponents partitions flows into constraint components with
// a map-keyed union-find over named resources (sender NIC, receiver NIC,
// and for crossing flows the source switch's uplink and the destination
// switch's downlink), components in first-flow order, slice order kept.
func referenceComponents(flows []*netsim.Flow, topo topology.Spec) [][]*netsim.Flow {
	type res struct{ kind, id int }
	parent := map[res]res{}
	var find func(r res) res
	find = func(r res) res {
		p, ok := parent[r]
		if !ok || p == r {
			parent[r] = r
			return r
		}
		root := find(p)
		parent[r] = root
		return root
	}
	union := func(a, b res) { parent[find(b)] = find(a) }
	for _, f := range flows {
		s := res{0, int(f.Src)}
		union(s, res{1, int(f.Dst)})
		if ss, ds := topo.SwitchOf(f.Src), topo.SwitchOf(f.Dst); !topo.Trivial() && ss != ds {
			union(s, res{2, ss})
			union(s, res{3, ds})
		}
	}
	index := map[res]int{}
	var comps [][]*netsim.Flow
	for _, f := range flows {
		r := find(res{0, int(f.Src)})
		c, ok := index[r]
		if !ok {
			c = len(comps)
			index[r] = c
			comps = append(comps, nil)
		}
		comps[c] = append(comps[c], f)
	}
	return comps
}

// TestGroupFlowsMatchesReference: one parallel-session allocator groups
// a sequence of growing and shrinking random flow sets exactly like the
// map-keyed reference, on the crossbar and on fabrics, so no fabric
// link slot survives from an earlier grouping; once warm, grouping
// allocates nothing.
func TestGroupFlowsMatchesReference(t *testing.T) {
	topos := []topology.Spec{
		{},
		{Kind: topology.Star, Switches: 4, HostsPerSwitch: 4, Place: topology.Block},
		{Kind: topology.FatTree, Switches: 8, HostsPerSwitch: 2, Oversub: 2, Place: topology.RoundRobin},
	}
	rng := rand.New(rand.NewSource(14))
	for _, topo := range topos {
		a := &componentModelAllocator{modelAllocator: *newModelAllocator(model.NewGigE(), 1, topo, nil)}
		for round := 0; round < 300; round++ {
			nodes := 2 + rng.Intn(16)
			flows := make([]*netsim.Flow, 1+rng.Intn(24))
			for i := range flows {
				s := rng.Intn(nodes)
				d := (s + 1 + rng.Intn(nodes-1)) % nodes
				flows[i] = &netsim.Flow{Src: graph.NodeID(s), Dst: graph.NodeID(d), Remaining: 1}
			}
			want := referenceComponents(flows, topo)
			n := a.groupFlows(flows)
			if n != len(want) {
				t.Fatalf("%v round %d: %d components, want %d", topo.Kind, round, n, len(want))
			}
			if n == 1 {
				continue
			}
			for c, comp := range want {
				got := a.sorted[a.start[c]:a.start[c+1]]
				if len(got) != len(comp) {
					t.Fatalf("%v round %d: component %d has %d flows, want %d", topo.Kind, round, c, len(got), len(comp))
				}
				for i := range comp {
					if got[i] != comp[i] {
						t.Fatalf("%v round %d: component %d flow %d differs", topo.Kind, round, c, i)
					}
				}
			}
		}
		flows := make([]*netsim.Flow, 32)
		for i := range flows {
			flows[i] = &netsim.Flow{Src: graph.NodeID(i % 16), Dst: graph.NodeID((i*5 + 3) % 16), Remaining: 1}
		}
		if allocs := testing.AllocsPerRun(50, func() { a.groupFlows(flows) }); allocs != 0 {
			t.Errorf("%v: groupFlows allocates %v per call, want 0", topo.Kind, allocs)
		}
	}
}
