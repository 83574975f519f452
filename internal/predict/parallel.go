// Parallel prediction sessions: the model-driven engine on the sharded
// component-lazy netsim core, which NewEngine selects for Spec.Shards > 1.
//
// The sequential engine (Shards 0 or 1) evaluates the penalty model on
// the whole active conflict graph at every event — the historical,
// golden-tested semantics. A parallel engine instead evaluates the
// model once per constraint-graph component: independent components
// advance on worker shards, and each shard's allocator builds and
// scores only the component subgraphs it owns. Both the engine's
// routing and the allocator's grouping come from netsim's one
// constraint-component index (netsim.ComponentGrouper here, the
// engine core's slot index there); this package keeps no partition of
// its own. For component-local models — every model in the registry:
// their penalty for a communication reads only degrees and couplings of
// communications sharing a sender NIC, receiver NIC or switch link with
// it — the
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
	"bwshare/internal/netsim"
	"bwshare/internal/topology"
)

// componentModelAllocator adapts a component-local penalty Model to the
// sharded engine's ComponentAllocator contract: it groups the flows it
// is handed into constraint-graph components (netsim.ComponentGrouper)
// and runs the model allocator's fill once per component, so a
// component's rates never depend on what else shares its shard (all
// fabric links a component's flows cross belong to the component by
// construction). One instance per shard: the fill and the grouping
// carry scratch.
type componentModelAllocator struct {
	modelAllocator
	grp netsim.ComponentGrouper
}

var _ netsim.ComponentAllocator = (*componentModelAllocator)(nil)
var _ netsim.ActiveSetObserver = (*componentModelAllocator)(nil)

// ComponentTopology implements netsim.ComponentAllocator.
func (a *componentModelAllocator) ComponentTopology() topology.Spec { return a.topo }

// Allocate implements netsim.Allocator.
func (a *componentModelAllocator) Allocate(flows []*netsim.Flow) {
	n := a.grp.Group(flows, a.topo)
	for c := 0; c < n; c++ {
		a.fill(a.grp.Component(c))
	}
}

// ActiveSetReset implements netsim.ActiveSetObserver: a new run empties
// the grouper's slot index, shedding what a huge-id run inflated.
func (a *componentModelAllocator) ActiveSetReset() { a.grp.Reset() }

// FlowStarted implements netsim.ActiveSetObserver; grouping needs no
// per-flow tracking.
func (a *componentModelAllocator) FlowStarted(*netsim.Flow) {}

// FlowFinished implements netsim.ActiveSetObserver.
func (a *componentModelAllocator) FlowFinished(*netsim.Flow) {}
