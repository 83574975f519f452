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
// departed flow. Each Dirty's slot numbering must hold to its contract
// (checkNumbering). Once warm, a walk allocates nothing.
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
			dirty := tr.Dirty(flows)
			sameComponents(t, name+" starts", dirtyComponents(&tr, dirty), referenceComponents(topo, flows))
			checkNumbering(t, name+" starts", &tr, dirty)
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
				dirty := tr.Dirty(live)
				sameComponents(t, name+" departures", dirtyComponents(&tr, dirty), touchedComponents(topo, live, touched))
				checkNumbering(t, name+" departures", &tr, dirty)
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

// checkNumbering holds the slot numbering of the last Dirty, which
// returned dirty, to its contract: component c's flows use exactly the
// local indices [slotEnds[c-1], slotEnds[c]), each of them; the flows
// on one slot share its index and distinct slots get distinct indices;
// a slot a flow does not load reads -1; NumLocal counts every index.
func checkNumbering(t *testing.T, ctx string, tr *DirtyTracker, dirty []*Flow) {
	t.Helper()
	slotOf := make(map[int32]int32)  // local index -> slot
	indexOf := make(map[int32]int32) // slot -> local index
	start, base := int32(0), int32(0)
	for c, end := range tr.ends {
		used := make(map[int32]bool)
		for _, f := range dirty[start:end] {
			for k, s := range f.slot {
				l := tr.Local(f, k)
				if s < 0 {
					if l != -1 {
						t.Fatalf("%s: flow %d loads no slot %d but has local index %d", ctx, f.ID, k, l)
					}
					continue
				}
				if l < base || l >= tr.slotEnds[c] {
					t.Fatalf("%s: flow %d slot %d has index %d outside its component's [%d, %d)", ctx, f.ID, k, l, base, tr.slotEnds[c])
				}
				if o, ok := slotOf[l]; ok && o != s {
					t.Fatalf("%s: slots %d and %d share local index %d", ctx, o, s, l)
				}
				if o, ok := indexOf[s]; ok && o != l {
					t.Fatalf("%s: the flows on slot %d have local indices %d and %d", ctx, s, o, l)
				}
				slotOf[l], indexOf[s], used[l] = s, l, true
			}
		}
		if len(used) != int(tr.slotEnds[c]-base) {
			t.Fatalf("%s: component %d uses %d of its %d local indices", ctx, c, len(used), tr.slotEnds[c]-base)
		}
		start, base = end, tr.slotEnds[c]
	}
	if tr.NumLocal() != int(base) {
		t.Fatalf("%s: NumLocal %d, want %d", ctx, tr.NumLocal(), base)
	}
}
