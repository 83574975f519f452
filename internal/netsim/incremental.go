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
// emits) in the slot index of component.go, and on each Allocate hands
// its owner only the flows of the components a flow arrival, a
// departure or a fault touched. Rates of untouched components are left
// exactly as the previous fill wrote them — the cache is the Flow.Rate
// field itself. Under churn of many independent jobs the per-event fill
// cost therefore scales with the touched components, not with the total
// number of active flows. Two allocators embed it: IncrementalAllocator
// (the GigE and InfiniBand substrates) and the predictor's model
// allocator (package predict).
//
// IncrementalAllocator's equivalence contract: rates are bit-identical
// to the map-based full-recompute oracle of the tests
// (referenceComponentAllocate), which partitions the flow set from
// scratch on every call and fills each component with the retained
// reference routines, for any node ids. This holds because (a) Dirty
// yields exact components, and sorting each by Flow.ID gives the fill
// one current component's flows in active-slice order — the same
// sub-slice the oracle fills — and (b) the per-component dense fill
// (coupledDenseAllocate) is bit-identical to the per-component
// reference fill by the PR-2/PR-4 differential guarantees. The engine's
// active slice keeps flows in start order (completion compacts it in
// place), so the sub-slice order never drifts between the two.
//
// Neither owner interns or renumbers an endpoint per event. The walk
// that finds a dirty component also numbers its slots densely (see
// component.go), and the owners refill in that numbering:
// IncrementalAllocator indexes the fill's slot table by the
// component's local slot indices, and the predictor takes a flow's
// local sender and receiver indices as the node indices of its conflict
// graph (graph.RebuildNumbered). Which slot gets which index changes
// nothing: the fill charges each slot in flow order, and the penalty
// models read only role-specific degrees, so any numbering that gives
// each slot its own index yields the same bits.

// DirtyTracker is the component-tracking half of an incremental
// allocator. Embedded in an Allocator it implements ActiveSetObserver
// and FaultObserver, and claims the allocator for a single engine. The
// owner's Allocate asks Dirty for the flows to refill, refills them,
// then calls Clean. Tracking is armed by the engine's first
// ActiveSetReset, and Dirty must not be called before it. Components
// are over sender and receiver NICs; IncrementalAllocator also sets its
// fabric before arming, so that edge uplinks and downlinks join them.
// Steady-state use allocates nothing.
//
// Dirty costs what the event touched, not the active population. Each
// event marks slots: a start its sender slot, a departure each of its
// slots that still loads a flow (so every piece of a split component
// is refilled), a fault the degraded resources' slots. Dirty walks the
// per-slot flow lists from each mark not yet reached, and each walk
// yields one exact component and numbers its slots (Local, NumLocal).
type DirtyTracker struct {
	attached bool
	tracking bool
	nlive    int // tracked active flow count

	idx   slotIndex // the exact constraint graph of the run
	marks []int32   // slots marked since the last Clean (duplicates allowed)
	pass  uint64    // Dirty calls so far: the idx.pass stamp of this one
	dirty []*Flow   // flows of dirty components, component by component
	ends  []int32   // per dirty component: its end offset in dirty
	// slotEnds holds, per dirty component, one past its last local slot
	// index: component c numbers its slots [slotEnds[c-1], slotEnds[c]).
	slotEnds []int32
	stack    []int32 // walk scratch
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

// FlowStarted implements ActiveSetObserver: the new flow joins its
// slots' lists and its (possibly merged) component becomes dirty.
func (t *DirtyTracker) FlowStarted(f *Flow) {
	if !t.tracking {
		return
	}
	t.idx.add(f)
	t.marks = append(t.marks, f.slot[0])
	t.nlive++
}

// FlowFinished implements ActiveSetObserver: the departing flow leaves
// its slots' lists, and each of those slots that still loads a flow
// becomes dirty — the departure may have split the component.
func (t *DirtyTracker) FlowFinished(f *Flow) {
	if !t.tracking {
		return
	}
	t.idx.remove(f)
	for _, s := range f.slot {
		if s >= 0 && len(t.idx.on[s]) > 0 {
			t.marks = append(t.marks, s)
		}
	}
	t.nlive--
}

// FaultTargetsChanged implements FaultObserver: the fabric resources
// whose capacity factor just changed mark their slots dirty, so the
// next Allocate refills exactly the flows whose rates the fault can
// move — everything sharing a component with the degraded link or NIC.
// A target no active flow has ever touched has no slot and is skipped;
// a slot that loads no live flow yields nothing in Dirty. Correctness
// rests on the decomposition argument above: a capacity change at one
// slot can only move rates inside that slot's component.
func (t *DirtyTracker) FaultTargetsChanged(targets []fault.Target) {
	if !t.tracking {
		return
	}
	for _, tg := range targets {
		for _, s := range t.idx.faultSlots(tg) {
			if s >= 0 {
				t.marks = append(t.marks, s)
			}
		}
	}
}

// ActiveSetReset implements ActiveSetObserver: the engine is
// (re)starting from an empty active set, which arms tracking and clears
// the index, shedding state one huge transient run inflated.
func (t *DirtyTracker) ActiveSetReset() {
	t.tracking = true
	t.nlive = 0
	t.idx.reset()
	t.marks = t.marks[:0]
	if cap(t.dirty) > maxPooledScratchLen {
		t.dirty, t.ends, t.slotEnds = nil, nil, nil
	}
	if cap(t.marks) > maxPooledScratchLen {
		t.marks = nil
	}
	if cap(t.stack) > maxPooledScratchLen {
		t.stack = nil
	}
}

// Dirty returns the flows of the components an event touched since the
// last Clean: whole constraint components, one after another (ends
// holds where each one ends), empty when every component is clean.
// Flows come in walk order, not Flow.ID order, and the slots they load
// are numbered (see Local). flows must be the tracked set of an armed
// tracker. The result is valid until Clean.
func (t *DirtyTracker) Dirty(flows []*Flow) []*Flow {
	if t.nlive != len(flows) {
		panic("netsim: tracked flow count disagrees with the flow set; an engine-attached allocator must only be invoked by its engine")
	}
	// Walk from each mark no earlier walk of this pass reached, keeping
	// only the marks that start a walk: a mark on an emptied slot can go,
	// since a flow loading it again marks its own sender slot.
	x := &t.idx
	t.pass++
	marks, dirty, ends, slotEnds := t.marks[:0], t.dirty[:0], t.ends[:0], t.slotEnds[:0]
	next := int32(0)
	for _, m := range t.marks {
		if x.pass[m] != t.pass && len(x.on[m]) > 0 {
			marks = append(marks, m)
			dirty, t.stack, next = x.walk(m, t.pass, next, dirty, t.stack)
			ends = append(ends, int32(len(dirty)))
			slotEnds = append(slotEnds, next)
		}
	}
	t.marks, t.dirty, t.ends, t.slotEnds = marks, dirty, ends, slotEnds
	return dirty
}

// Local returns the index the last Dirty gave f's slot k — 0 its sender
// NIC, 1 its receiver NIC, 2 its source uplink, 3 its destination
// downlink — or -1 where f loads no such slot. The indices are dense
// over the whole Dirty result, in [0, NumLocal()): the flows on one
// slot share its index, and distinct slots (a host's send and receive
// NICs among them) get distinct ones. f must be a flow the last Dirty
// returned.
func (t *DirtyTracker) Local(f *Flow, k int) int32 {
	if s := f.slot[k]; s >= 0 {
		return t.idx.local[s]
	}
	return -1
}

// NumLocal returns how many slots the last Dirty numbered.
func (t *DirtyTracker) NumLocal() int {
	if n := len(t.slotEnds); n > 0 {
		return int(t.slotEnds[n-1])
	}
	return 0
}

// Clean marks every component clean once the owner has refilled the
// flows Dirty returned. It drops the gathered flow pointers: only the
// slot lists may hold flows past the call, and only live ones (the
// engine recycles completed Flow structs, and a kept pointer would also
// pin structs the free-list cap meant to release to the GC).
func (t *DirtyTracker) Clean() {
	t.marks = t.marks[:0]
	clear(t.dirty)
}

// IncrementalAllocator is the production allocator of the GigE and
// InfiniBand substrates: the coupled allocation, evaluated
// incrementally per connected component of the flow constraint graph
// (see the comment above). Driven by a FluidEngine it refills only
// dirty components, and a standalone Allocate call (no engine) tracks
// the given flows for that one call, a full component-scoped recompute
// with identical results. One allocator must serve at most one engine.
// Steady-state Allocate calls do zero heap allocation.
type IncrementalAllocator struct {
	Cfg CoupledConfig
	DirtyTracker

	scr fillScratch // per-component dense fill state, reused
}

var _ Allocator = (*IncrementalAllocator)(nil)
var _ ActiveSetObserver = (*IncrementalAllocator)(nil)
var _ FaultObserver = (*IncrementalAllocator)(nil)

// ActiveSetReset implements ActiveSetObserver: it arms the tracker on
// the configured fabric and sheds fill scratch one huge run inflated.
func (a *IncrementalAllocator) ActiveSetReset() {
	a.idx.topo = a.Cfg.Topo
	a.DirtyTracker.ActiveSetReset()
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
	if a.tracking {
		a.refill(flows)
		return
	}
	// Standalone (engine-less) call: track flows for this call only.
	a.ActiveSetReset()
	for _, f := range flows {
		a.FlowStarted(f)
	}
	a.refill(flows)
	a.idx.reset()
	a.tracking = false
}

// refill runs the dense coupled fill once per dirty component, in the
// component's local slot numbering, its flows sorted by Flow.ID — slice
// order, which phase 1b's per-receiver inflow sums follow.
func (a *IncrementalAllocator) refill(flows []*Flow) {
	dirty := a.Dirty(flows)
	start, base := int32(0), int32(0)
	for c, end := range a.ends {
		comp := dirty[start:end]
		slices.SortFunc(comp, func(p, q *Flow) int { return cmp.Compare(p.ID, q.ID) })
		coupledDenseAllocate(a.Cfg, comp, &a.idx, base, a.slotEnds[c], &a.scr)
		start, base = end, a.slotEnds[c]
	}
	a.Clean()
}
