package netsim

import (
	"cmp"
	"slices"

	"bwshare/internal/fault"
)

// Incremental component-scoped allocation.
//
// The coupled allocation (coupledDenseAllocate) decomposes over the
// connected components of the constraint graph on active flows: two
// flows interact only if they share a sender NIC, a receiver NIC, or —
// on a multi-switch fabric — an edge-switch uplink or downlink. Base
// demand, receiver oversubscription, sender coupling and the final
// water-fill all read state confined to one component, so the max-min
// allocation of a component depends on nothing outside it. The
// predictor's penalty models decompose the same way over the sender and
// receiver NICs (see core.Model).
//
// DirtyTracker exploits that for any allocator whose rates are
// component-local: it maintains the constraint graph across active-set
// changes (via the ActiveSetObserver callbacks a FluidEngine already
// emits) in the shared constraint-slot index of component.go, and on
// each Allocate hands its owner only the flows of the components a flow
// arrival, a departure or a fault touched. Rates of untouched
// components are left exactly as the previous fill wrote them — the
// cache is the Flow.Rate field itself. Under churn of many independent
// jobs the per-event fill cost therefore scales with the touched
// components, not with the total number of active flows. Two
// allocators embed it: IncrementalAllocator (the GigE and InfiniBand
// substrates) and the predictor's model allocator (package predict).
//
// Removals are handled without a per-event rebuild: the persistent
// union-find only ever accretes unions, so after departures it is a
// monotone over-approximation of true connectivity. That is safe —
// dirty marking on over-merged components marks a superset of the
// affected flows, and that superset is still a union of whole true
// components. The over-approximation is compacted by a full
// re-derivation only once enough removals accumulate, which amortizes
// the linear rebuild cost to O(1) per event.
//
// IncrementalAllocator's equivalence contract: rates are bit-identical
// to the map-based full-recompute oracle of the tests
// (referenceComponentAllocate), which partitions the flow set from
// scratch on every call and fills each component with the retained
// reference routines, for any node ids. This holds because (a) the
// exact component grouping of the dirty flows is recomputed at fill
// time by a componentGrouper, so each fill sees exactly one current
// component's flows in active-slice order — the same sub-slice the
// oracle fills — and (b) the per-component dense fill
// (coupledDenseAllocate) is bit-identical to the per-component
// reference fill by the PR-2/PR-4 differential guarantees. The engine's
// active slice keeps flows in start order (completion compacts it in
// place), so the sub-slice order never drifts between the two.

// DirtyTracker is the component-tracking half of an incremental
// allocator. Embedded in an Allocator it implements ActiveSetObserver
// and FaultObserver, and claims the allocator for a single engine. The
// owner's Allocate asks Dirty for the flows to refill, refills them,
// then calls Clean. Tracking is armed by the engine's first
// ActiveSetReset; before that (an allocator called without an engine,
// or an owner that never forwards ActiveSetReset) Dirty returns every
// flow. Components are over sender and receiver NICs; IncrementalAllocator
// also sets its fabric before arming, so that edge uplinks and downlinks
// join them. Steady-state use allocates nothing.
//
// Dirty costs what the event touched, not the active population. Each
// mark also records the marked slot, and Dirty walks the member lists
// of the marked components — kept by the slot index: spliced on union,
// unlinked on departure, rebuilt on compaction — and sorts what it
// gathered by Flow.ID; a component gathered alone gets its list
// written back in that order, so gathering it again needs no sort. A
// FluidEngine's active slice is in ID order (it appends flows as it
// numbers them and compacts in place), so that is slice order.
type DirtyTracker struct {
	attached bool
	tracking bool
	nlive    int // tracked active flow count

	// idx is the persistent partition of the run. A component is dirty
	// when its root's touch stamp exceeds seen; every mark stamps seen+1
	// and Clean advances seen past all of them.
	idx   slotIndex
	seen  uint64
	marks []int32 // slots stamped since the last Clean (duplicates allowed)
	pass  uint64  // Dirty calls so far: the idx.gathered stamp of this one
	dirty []*Flow // flows of dirty components, in slice order
}

var _ ActiveSetObserver = (*DirtyTracker)(nil)
var _ FaultObserver = (*DirtyTracker)(nil)

// claim marks the tracker's allocator as owned by an engine (see
// claimable).
func (t *DirtyTracker) claim() bool {
	if t.attached {
		return false
	}
	t.attached = true
	return true
}

// FlowStarted implements ActiveSetObserver: the new flow's constraints
// join the partition and its (possibly merged) component becomes dirty.
func (t *DirtyTracker) FlowStarted(f *Flow) {
	if !t.tracking {
		return
	}
	r := t.idx.link(f)
	t.idx.touch[r] = t.seen + 1
	t.marks = append(t.marks, r)
	t.nlive++
}

// FlowFinished implements ActiveSetObserver: the departing flow leaves
// its component's member list and the component becomes dirty. The
// partition itself is left alone — it now over-approximates
// connectivity, which dirty marking tolerates — and is compacted
// amortized in Dirty.
func (t *DirtyTracker) FlowFinished(f *Flow) {
	if !t.tracking {
		return
	}
	r := t.idx.stamp(t.idx.snd.get(int(f.Src)), t.seen+1)
	t.idx.remove(f, r)
	t.marks = append(t.marks, r)
	t.idx.removals++
	t.nlive--
}

// FaultTargetsChanged implements FaultObserver: the fabric resources
// whose capacity factor just changed mark their constraint components
// dirty, so the next Allocate refills exactly the flows whose rates the
// fault can move — everything sharing a component with the degraded
// link or NIC. A target no active flow has ever touched has no slot and
// is skipped; a slot whose component holds no live flows takes a
// harmless stale mark (no live flow finds it). Correctness rests on the
// decomposition argument above: a capacity change at one slot can only
// move rates inside that slot's component.
func (t *DirtyTracker) FaultTargetsChanged(targets []fault.Target) {
	if !t.tracking {
		return
	}
	for _, tg := range targets {
		for _, s := range t.idx.faultSlots(tg) {
			if s >= 0 {
				t.marks = append(t.marks, t.idx.stamp(s, t.seen+1))
			}
		}
	}
}

// ActiveSetReset implements ActiveSetObserver: the engine is
// (re)starting from an empty active set, which arms tracking and clears
// the partition, shedding state one huge transient run inflated.
func (t *DirtyTracker) ActiveSetReset() {
	t.tracking = true
	t.nlive = 0
	t.seen = 0
	t.idx.reset()
	t.marks = t.marks[:0]
	t.pass = 0
	if cap(t.dirty) > maxPooledScratchLen {
		t.dirty = nil
	}
	if cap(t.marks) > maxPooledScratchLen {
		t.marks = nil
	}
}

// Dirty returns the flows of the components an event touched since the
// last Clean, in slice order: a union of whole constraint components of
// flows, empty when every component is clean. flows must be the tracked
// set in Flow.ID order, as an engine's active slice is. An untracked
// tracker returns flows itself. The result is valid until Clean.
func (t *DirtyTracker) Dirty(flows []*Flow) []*Flow {
	if !t.tracking {
		return flows
	}
	if t.nlive != len(flows) {
		panic("netsim: tracked flow count disagrees with the flow set; an engine-attached allocator must only be invoked by its engine")
	}
	// Stamps live at roots and unions merge them, so every dirty
	// component is the component of a mark. Gather the members of each
	// dirty component once, keeping one mark per component that still
	// has members (a stale mark on an emptied component can go: a flow
	// joining it marks it again).
	x := &t.idx
	t.pass++
	roots, dirty := t.marks[:0], t.dirty[:0]
	for _, m := range t.marks {
		r := x.uf.find(m)
		if h := x.members[r]; x.touch[r] > t.seen && h != nil && x.gathered[r] != t.pass {
			x.gathered[r] = t.pass
			roots = append(roots, r)
			for f := h; ; {
				dirty = append(dirty, f)
				if f = f.next; f == h {
					break
				}
			}
		}
	}
	if !idOrdered(dirty) {
		slices.SortFunc(dirty, func(a, b *Flow) int { return cmp.Compare(a.ID, b.ID) })
		if len(roots) == 1 {
			// The sorted flows are exactly the component's members:
			// keep the list in that order, so a component dirty event
			// after event (one scheme's flows in a session) is sorted
			// when gathered again.
			x.relist(roots[0], dirty)
		}
	}
	t.marks, t.dirty = roots, dirty
	if x.compactDue(len(flows)) {
		// Re-derive the partition from the live flows, shedding the
		// over-merges departures left, and re-mark the dirty flows.
		x.unlink()
		x.relink(flows)
		t.marks = t.marks[:0]
		for _, f := range t.dirty {
			r := x.root(f)
			x.touch[r] = t.seen + 1
			t.marks = append(t.marks, r)
		}
	}
	return t.dirty
}

// idOrdered reports whether fs is in ascending Flow.ID order.
func idOrdered(fs []*Flow) bool {
	for i := 1; i < len(fs); i++ {
		if fs[i].ID < fs[i-1].ID {
			return false
		}
	}
	return true
}

// Clean marks every component clean once the owner has refilled the
// flows Dirty returned. It drops the gathered flow pointers: only the
// member lists may hold flows past the call, and only live ones (the
// engine recycles completed Flow structs, and a kept pointer would also
// pin structs the free-list cap meant to release to the GC).
func (t *DirtyTracker) Clean() {
	t.seen++
	t.marks = t.marks[:0]
	clear(t.dirty)
}

// IncrementalAllocator is the production allocator of the GigE and
// InfiniBand substrates: the coupled allocation, evaluated
// incrementally per connected component of the flow constraint graph
// (see the comment above). Driven by a FluidEngine it refills only
// dirty components, and a standalone Allocate call (no engine) falls
// back to a full component-scoped recompute with identical results. One
// allocator must serve at most one engine. Steady-state Allocate calls
// do zero heap allocation.
type IncrementalAllocator struct {
	Cfg CoupledConfig
	DirtyTracker

	grp componentGrouper // exact grouping of the flows being refilled
	scr fillScratch      // per-component dense fill state, reused
}

var _ Allocator = (*IncrementalAllocator)(nil)
var _ ActiveSetObserver = (*IncrementalAllocator)(nil)
var _ FaultObserver = (*IncrementalAllocator)(nil)

// ActiveSetReset implements ActiveSetObserver: it arms the tracker on
// the configured fabric and sheds fill scratch one huge run inflated.
func (a *IncrementalAllocator) ActiveSetReset() {
	a.idx.topo = a.Cfg.Topo
	a.DirtyTracker.ActiveSetReset()
	a.grp.reset()
	if a.scr.oversized() {
		a.scr = fillScratch{}
	}
}

// Allocate implements Allocator. Rates are bit-identical to the
// full-recompute oracle on the same flow slice.
func (a *IncrementalAllocator) Allocate(flows []*Flow) {
	if len(flows) == 0 {
		return
	}
	if !a.tracking {
		// Standalone (engine-less) path: Dirty returns every flow, and
		// the grouping interns them on the configured fabric.
		a.idx.topo = a.Cfg.Topo
	}
	dirty := a.Dirty(flows)
	if len(dirty) == 0 {
		return // every component cached; rates already in Flow.Rate
	}
	a.fill(dirty)
	a.Clean()
}

// fill runs the dense coupled fill once per exact component of flows,
// slice order kept inside each. The flows are a union of whole true
// components (dirty marking is per persistent component, a superset of
// true ones), so each fill sees exactly one component's flows.
func (a *IncrementalAllocator) fill(flows []*Flow) {
	n := a.grp.group(&a.idx, flows)
	for c := 0; c < n; c++ {
		coupledDenseAllocate(a.Cfg, a.grp.component(c), &a.scr)
	}
	a.grp.drop()
}
