package netsim

import "bwshare/internal/topology"

// Map-based full-recompute oracle for the incremental component-scoped
// allocator, in the style of reference.go: on every call it partitions
// the flow set into connected components of the constraint graph from
// scratch and fills each component with the retained reference routines.
// IncrementalAllocator is differential-tested against it and must
// produce bit-identical rates, and DirtyTracker's walk against its
// partition. The file also holds the test-only Allocator adapters over
// the oracles and the whole-set dense fill. Do not "optimize" the
// oracles.

// componentKind distinguishes the constraint namespaces of the graph:
// flows sharing any one constraint belong to one component.
type componentKind uint8

const (
	compSender componentKind = iota
	compReceiver
	compUplink
	compDownlink
)

// componentKey identifies one constraint element.
type componentKey struct {
	kind componentKind
	id   int
}

// referenceComponentAllocate partitions flows into constraint-graph
// components and runs the retained map-based coupled allocation on each
// component's flows, in first-appearance order with slice order
// preserved inside a component. On a flow set forming one component it
// is exactly referenceCoupledTopoAllocate.
func referenceComponentAllocate(cfg CoupledConfig, flows []*Flow) {
	for _, comp := range referenceComponents(cfg.Topo, flows) {
		referenceCoupledTopoAllocate(cfg, comp)
	}
}

// referenceComponents partitions flows into the connected components of
// their constraint graph on topo with a map-keyed union-find over
// constraint elements: components ordered by their first flow, flows
// inside a component in slice order. It is the oracle of DirtyTracker's
// component walk.
func referenceComponents(topo topology.Spec, flows []*Flow) [][]*Flow {
	if len(flows) == 0 {
		return nil
	}
	// Transliterated textbook union-find over constraint elements.
	elem := make(map[componentKey]int)
	parent := []int{}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(x, y int) int {
		rx, ry := find(x), find(y)
		if rx != ry {
			parent[ry] = rx
		}
		return rx
	}
	slot := func(k componentKey) int {
		if s, ok := elem[k]; ok {
			return s
		}
		s := len(parent)
		parent = append(parent, s)
		elem[k] = s
		return s
	}
	anchor := make([]int, len(flows)) // sender slot of each flow
	for i, f := range flows {
		s := slot(componentKey{compSender, int(f.Src)})
		r := slot(componentKey{compReceiver, int(f.Dst)})
		root := union(s, r)
		if !topo.Trivial() {
			ss, ds := topo.SwitchOf(f.Src), topo.SwitchOf(f.Dst)
			if ss != ds {
				root = union(root, slot(componentKey{compUplink, ss}))
				union(root, slot(componentKey{compDownlink, ds}))
			}
		}
		anchor[i] = s
	}
	// Group flows by component root, components ordered by their first
	// flow, flows inside a component in slice order.
	index := make(map[int]int)
	var comps [][]*Flow
	for i, f := range flows {
		root := find(anchor[i])
		c, ok := index[root]
		if !ok {
			c = len(comps)
			index[root] = c
			comps = append(comps, nil)
		}
		comps[c] = append(comps[c], f)
	}
	return comps
}

// componentOracle is an Allocator running referenceComponentAllocate
// with a full recompute on every call: the oracle for
// IncrementalAllocator in the engine-driven differential tests.
type componentOracle struct {
	Cfg CoupledConfig
}

// Allocate implements Allocator.
func (a *componentOracle) Allocate(flows []*Flow) {
	referenceComponentAllocate(a.Cfg, flows)
}

// coupledOracle is an Allocator running the whole-set map-based coupled
// allocation, referenceCoupledTopoAllocate.
type coupledOracle struct {
	Cfg CoupledConfig
}

// Allocate implements Allocator.
func (a *coupledOracle) Allocate(flows []*Flow) {
	referenceCoupledTopoAllocate(a.Cfg, flows)
}

// denseCoupled is an Allocator running the dense coupled fill over the
// whole flow set at once, the counterpart of coupledOracle.
type denseCoupled struct {
	Cfg CoupledConfig
	scr wholeFill
}

// Allocate implements Allocator.
func (a *denseCoupled) Allocate(flows []*Flow) {
	if len(flows) > 0 {
		denseAllocate(a.Cfg, flows, &a.scr)
	}
}

// wholeFill is the scratch of denseAllocate: a tracker of its own, whose
// walk numbers the slots, and the fill's scratch.
type wholeFill struct {
	tr DirtyTracker
	fillScratch
}

// denseAllocate runs the dense coupled fill over flows as one fill,
// whatever their components — the counterpart of
// referenceCoupledTopoAllocate. The flows are tracked for the call, so
// one Dirty walk numbers their slots, then coupledDenseAllocate fills
// them all in that numbering.
func denseAllocate(cfg CoupledConfig, flows []*Flow, w *wholeFill) {
	w.tr.idx.topo = cfg.Topo
	w.tr.ActiveSetReset()
	for _, f := range flows {
		w.tr.FlowStarted(f)
	}
	w.tr.Dirty(flows)
	coupledDenseAllocate(cfg, flows, &w.tr.idx, 0, int32(w.tr.NumLocal()), &w.fillScratch)
	w.tr.Clean()
}
