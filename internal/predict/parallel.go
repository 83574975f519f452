// Parallel prediction sessions: the model-driven engine on the sharded
// component-lazy netsim core, which NewEngine selects for Spec.Shards > 1.
//
// The sequential engine (Shards 0 or 1) evaluates the penalty model on
// the whole active conflict graph at every event — the historical,
// golden-tested semantics. A parallel engine instead evaluates the
// model once per constraint-graph component: independent components
// advance on worker shards, and each shard's allocator builds and
// scores only the component subgraphs it owns. For component-local
// models — every model in the registry: their penalty for a
// communication reads only degrees and couplings of communications
// sharing a sender NIC, receiver NIC or switch link with it — the
// per-component evaluation computes the same arithmetic on the same
// operands, so results are bit-identical at every shard count. Versus
// the sequential engine, per-component and whole-graph evaluation group
// integration steps differently, so predictions agree to float rounding
// (exactly, when the scheme is a single constraint component).
//
// Restriction: a model whose penalties couple communications across
// constraint components (e.g. the Myrinet EXP-A2 ablation with
// graph.AnyEndpoint, which conflicts a sender with a receiver of the
// same node) is not component-local and must use the sequential
// engine.
package predict

import (
	"bwshare/internal/graph"
	"bwshare/internal/netsim"
	"bwshare/internal/topology"
)

// componentModelAllocator adapts a component-local penalty Model to the
// sharded engine's ComponentAllocator contract: it groups the flows it
// is handed into constraint-graph components and runs the model
// allocator's fill once per component, so a component's rates never
// depend on what else shares its shard (all fabric links a component's
// flows cross belong to the component by construction). One instance
// per shard: the fill and the grouping carry scratch.
type componentModelAllocator struct {
	modelAllocator

	parent  []int          // union-find over constraint slots
	link    []int          // per fabric link: its slot + 1, 0 when unused
	touched []int          // fabric links given a slot by this grouping
	group   []int          // per root slot: component index + 1
	start   []int          // component offsets into sorted, then len(flows)
	sorted  []*netsim.Flow // flows regrouped component by component
}

var _ netsim.ComponentAllocator = (*componentModelAllocator)(nil)

// ComponentTopology implements netsim.ComponentAllocator.
func (a *componentModelAllocator) ComponentTopology() topology.Spec { return a.topo }

// Allocate implements netsim.Allocator.
func (a *componentModelAllocator) Allocate(flows []*netsim.Flow) {
	if len(flows) == 0 {
		return
	}
	if a.groupFlows(flows) == 1 {
		// One component keeps slice order, so a.g, built over flows by
		// the grouping, is already the component's graph.
		a.score(flows)
		return
	}
	for c := 0; c+1 < len(a.start); c++ {
		a.fill(a.sorted[a.start[c]:a.start[c+1]])
	}
}

// groupFlows partitions flows into connected components of the
// constraint graph (shared sender NIC, receiver NIC, or edge-switch
// uplink/downlink of crossing flows) and returns their number. With
// more than one, components are in first-flow order with slice order
// preserved inside each: component c is a.sorted[a.start[c]:a.start[c+1]].
// Constraint slots are numbered from the conflict graph's node indices
// (k of them): sender NIC s, receiver NIC k+d, then the fabric links
// crossing flows use, in first use, so the cost is linear in the flows.
func (a *componentModelAllocator) groupFlows(flows []*netsim.Flow) int {
	a.rebuild(flows)
	k := a.g.NumNodes()
	a.parent = grow(a.parent, 2*k)
	for i := range a.parent {
		a.parent[i] = i
	}
	if !a.topo.Trivial() && len(a.link) < 2*a.topo.Switches {
		a.link = make([]int, 2*a.topo.Switches)
	}
	for i, f := range flows {
		s, d := a.g.Ends(graph.CommID(i))
		a.union(s, k+d)
		if !a.topo.Trivial() {
			if ss, ds := a.topo.SwitchOf(f.Src), a.topo.SwitchOf(f.Dst); ss != ds {
				a.union(s, a.linkSlot(ss))
				a.union(s, a.linkSlot(a.topo.Switches+ds))
			}
		}
	}
	for _, l := range a.touched {
		a.link[l] = 0
	}
	a.touched = a.touched[:0]
	// Number components in first-flow order (group, indexed by root,
	// holds index+1) and count their sizes; the running sums make
	// start[c] the end of component c, and placing flows backwards
	// turns it into the component's offset while keeping slice order.
	a.group = grow(a.group, len(a.parent))
	clear(a.group)
	a.start = a.start[:0]
	for i := range flows {
		s, _ := a.g.Ends(graph.CommID(i))
		r := a.find(s)
		if a.group[r] == 0 {
			a.start = append(a.start, 0)
			a.group[r] = len(a.start)
		}
		a.start[a.group[r]-1]++
	}
	if len(a.start) == 1 {
		return 1
	}
	for c := 1; c < len(a.start); c++ {
		a.start[c] += a.start[c-1]
	}
	a.start = append(a.start, len(flows))
	a.sorted = append(a.sorted[:0], flows...)
	for i := len(flows) - 1; i >= 0; i-- {
		s, _ := a.g.Ends(graph.CommID(i))
		c := a.group[a.find(s)] - 1
		a.start[c]--
		a.sorted[a.start[c]] = flows[i]
	}
	return len(a.start) - 1
}

// linkSlot returns the constraint slot of fabric link l (the uplink of
// switch l, or for l >= Switches the downlink of switch l-Switches),
// adding it on first use.
func (a *componentModelAllocator) linkSlot(l int) int {
	if a.link[l] == 0 {
		a.parent = append(a.parent, len(a.parent))
		a.link[l] = len(a.parent)
		a.touched = append(a.touched, l)
	}
	return a.link[l] - 1
}

func (a *componentModelAllocator) find(x int) int {
	for a.parent[x] != x {
		a.parent[x] = a.parent[a.parent[x]]
		x = a.parent[x]
	}
	return x
}

func (a *componentModelAllocator) union(x, y int) {
	if rx, ry := a.find(x), a.find(y); rx != ry {
		a.parent[ry] = rx
	}
}
