package netsim

import "bwshare/internal/fault"

// Incremental component-scoped allocation.
//
// The coupled allocation (coupledDenseAllocate) decomposes over the
// connected components of the constraint graph on active flows: two
// flows interact only if they share a sender NIC, a receiver NIC, or —
// on a multi-switch fabric — an edge-switch uplink or downlink. Base
// demand, receiver oversubscription, sender coupling and the final
// water-fill all read state confined to one component, so the max-min
// allocation of a component depends on nothing outside it.
//
// IncrementalAllocator exploits that: it maintains the constraint graph
// across active-set changes (via the ActiveSetObserver callbacks a
// FluidEngine already emits) in the shared constraint-slot index of
// component.go, and on each Allocate refills only the components a
// flow arrival or departure touched. Rates of untouched components are
// left exactly as the previous fill wrote them — the cache is the
// Flow.Rate field itself. Under churn of many independent jobs the
// per-event fill cost therefore scales with the touched component, not
// with the total number of active flows.
//
// Removals are handled without a per-event rebuild: the persistent
// union-find only ever accretes unions, so after departures it is a
// monotone over-approximation of true connectivity. That is safe —
// dirty marking on over-merged components marks a superset of the
// affected flows — because the exact component grouping of the flows
// being refilled is recomputed transiently (and cheaply, over just the
// dirty flows) by a ComponentGrouper at fill time. The
// over-approximation is compacted by a full re-derivation only once
// enough removals accumulate, which amortizes the linear rebuild cost
// to O(1) per event.
//
// Equivalence contract: rates are bit-identical to the map-based
// full-recompute oracle of the tests (referenceComponentAllocate), which
// partitions the flow set from scratch on every call and fills each
// component with the retained reference routines, for any node ids. This
// holds because (a) a cached component's rates were produced by a fill
// over exactly its current member flows in active-slice order — the
// same sub-slice the oracle fills — and (b) the per-component dense
// fill (coupledDenseAllocate) is bit-identical to the per-component
// reference fill by the PR-2/PR-4 differential guarantees. The engine's
// active slice keeps flows in start order (reap compacts in place), so
// the sub-slice order never drifts between the two.

// IncrementalAllocator is the production allocator of the GigE and
// InfiniBand substrates: the coupled allocation, evaluated
// incrementally per connected component of the flow constraint graph
// (see the package comment above). It implements ActiveSetObserver;
// driven by a FluidEngine it refills only dirty components, and a
// standalone Allocate call (no engine) falls back to a full
// component-scoped recompute with identical results. One allocator must
// serve at most one engine. Steady-state Allocate calls do zero heap
// allocation.
type IncrementalAllocator struct {
	Cfg CoupledConfig

	attached bool
	tracking bool
	nlive    int // tracked active flow count

	// idx is the persistent partition of the run. A component is dirty
	// when its root's touch stamp exceeds seen; every mark stamps seen+1
	// and a refill advances seen past all of them.
	idx  slotIndex
	seen uint64

	grp   ComponentGrouper // exact grouping of the flows being refilled
	scr   fillScratch      // per-component dense fill state, reused
	dirty []*Flow          // flows of dirty components, in slice order
}

var _ Allocator = (*IncrementalAllocator)(nil)
var _ ActiveSetObserver = (*IncrementalAllocator)(nil)
var _ FaultObserver = (*IncrementalAllocator)(nil)

// claim marks the allocator as owned by an engine (see claimable).
func (a *IncrementalAllocator) claim() bool {
	if a.attached {
		return false
	}
	a.attached = true
	return true
}

// FlowStarted implements ActiveSetObserver: the new flow's constraints
// join the partition and its (possibly merged) component becomes dirty.
func (a *IncrementalAllocator) FlowStarted(f *Flow) {
	if !a.tracking {
		return
	}
	a.idx.touch[a.idx.link(f)] = a.seen + 1
	a.nlive++
}

// FlowFinished implements ActiveSetObserver: the departing flow's
// component becomes dirty. The partition itself is left alone — it now
// over-approximates connectivity, which the exact grouping at fill time
// tolerates — and is compacted amortized in Allocate.
func (a *IncrementalAllocator) FlowFinished(f *Flow) {
	if !a.tracking {
		return
	}
	a.idx.stamp(a.idx.snd.get(int(f.Src)), a.seen+1)
	a.idx.removals++
	a.nlive--
}

// FaultTargetsChanged implements FaultObserver: the fabric resources
// whose capacity factor just changed mark their constraint components
// dirty, so the next Allocate refills exactly the flows whose rates the
// fault can move — everything sharing a component with the degraded
// link or NIC. A target no active flow has ever touched has no slot and
// is skipped; a slot whose component holds no live flows takes a
// harmless stale mark (no live flow finds it). Correctness rests on the
// same decomposition argument as the rest of this file: a capacity
// change at one slot can only move rates inside that slot's component,
// because base demand, coupling and the water-fill read state confined
// to the component.
func (a *IncrementalAllocator) FaultTargetsChanged(targets []fault.Target) {
	if !a.tracking {
		return
	}
	for _, t := range targets {
		for _, s := range a.idx.faultSlots(t) {
			if s >= 0 {
				a.idx.stamp(s, a.seen+1)
			}
		}
	}
}

// ActiveSetReset implements ActiveSetObserver: the engine is
// (re)starting from an empty active set, which arms incremental
// tracking and clears the partition, shedding state one huge transient
// run inflated.
func (a *IncrementalAllocator) ActiveSetReset() {
	a.tracking = true
	a.nlive = 0
	a.seen = 0
	a.idx.topo = a.Cfg.Topo
	a.idx.reset()
	a.grp.Reset()
	if a.scr.oversized() {
		a.scr = fillScratch{}
	}
	if cap(a.dirty) > maxPooledScratchLen {
		a.dirty = nil
	}
}

// Allocate implements Allocator. Rates are bit-identical to the
// full-recompute oracle on the same flow slice.
func (a *IncrementalAllocator) Allocate(flows []*Flow) {
	if len(flows) == 0 {
		return
	}
	if !a.tracking {
		// Standalone (engine-less) path: recompute every component from
		// scratch.
		a.idx.topo = a.Cfg.Topo
		a.fill(flows)
		return
	}
	if a.nlive != len(flows) {
		panic("netsim: IncrementalAllocator tracked flow count disagrees with the flow set; an engine-attached allocator must only be invoked by its engine")
	}
	// Collect the flows of dirty components. Stamps live at roots and
	// unions merge them, so one find per flow suffices.
	x, dirty := &a.idx, a.dirty[:0]
	for _, f := range flows {
		if x.touch[x.root(f)] > a.seen {
			dirty = append(dirty, f)
		}
	}
	a.dirty = dirty
	if a.idx.compactDue(len(flows)) {
		// Re-derive the partition from the live flows, shedding the
		// over-merges departures left, and re-mark the dirty flows.
		a.idx.unlink()
		for _, f := range flows {
			a.idx.link(f)
		}
		for _, f := range a.dirty {
			a.idx.touch[a.idx.root(f)] = a.seen + 1
		}
	}
	if len(a.dirty) == 0 {
		return // every component cached; rates already in Flow.Rate
	}
	a.fill(a.dirty)
	a.seen++
	// Drop the flow pointers: the Allocator contract forbids retaining
	// them past the call (the engine recycles completed Flow structs,
	// and a kept pointer would also pin structs the free-list cap meant
	// to release to the GC).
	clear(a.dirty)
}

// fill runs the dense coupled fill once per exact component of flows,
// slice order kept inside each. The flows are a union of whole true
// components (dirty marking is per persistent component, a superset of
// true ones), so each fill sees exactly one component's flows.
func (a *IncrementalAllocator) fill(flows []*Flow) {
	n := a.grp.group(&a.idx, flows)
	for c := 0; c < n; c++ {
		coupledDenseAllocate(a.Cfg, a.grp.Component(c), &a.scr)
	}
	a.grp.drop()
}
