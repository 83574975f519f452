// Package netsim provides the simulated interconnect substrates that
// replace the paper's physical clusters ("measured" times).
//
// Two engine families are provided:
//
//   - FluidEngine: flows progress at piecewise-constant rates computed by
//     a pluggable Allocator each time the active flow set changes. The
//     GigE and InfiniBand substrates are fluid engines whose allocators
//     model TCP window caps, 802.3x pause coupling and credit
//     backpressure (see the gige and infiniband subpackages).
//   - The Myrinet substrate is a packet-level discrete-event simulator in
//     the myrinet subpackage (Stop & Go head-of-line blocking cannot be
//     expressed as a rate allocation).
//
// All engines implement core.Engine and are deterministic.
package netsim

import (
	"fmt"
	"math"

	"bwshare/internal/core"
	"bwshare/internal/fault"
	"bwshare/internal/graph"
)

// completionEps is the absolute byte threshold under which a flow is
// considered finished. Volumes are megabytes-scale, so 1e-6 bytes is far
// below any meaningful residue yet far above float64 noise.
const completionEps = 1e-6

// Flow is the allocator's view of one active transfer.
type Flow struct {
	ID        int
	Src, Dst  graph.NodeID
	Remaining float64 // bytes left, as of the flow's last integration point
	Rate      float64 // set by the Allocator, bytes/second
	// CrossbarRate is the rate a crossbar-level allocator (a penalty
	// model) last gave the flow. It survives between fills, so such an
	// allocator re-scores only the components an event touched while a
	// fabric's uplink fill (TopoFiller) still caps every flow from it.
	CrossbarRate float64

	// slot and pos place the flow in a DirtyTracker's constraint graph
	// while it is tracked (see slotIndex): slot[k] is its slot in
	// namespace k (sender, receiver, uplink, downlink), pos[k] its index
	// in that slot's flow list, both -1 for none.
	slot, pos [4]int32
}

// Allocator assigns an instantaneous rate to every active flow. It is
// invoked whenever the active set changes. Implementations write
// Flow.Rate and must keep every rate >= 0; they must not retain the
// slice or the Flow pointers (the engine recycles completed flows),
// except as an ActiveSetObserver below.
type Allocator interface {
	Allocate(flows []*Flow)
}

// ActiveSetObserver is optionally implemented by Allocators that want to
// track the active flow set incrementally instead of rescanning it on
// every Allocate (e.g. per-node flow counts). A FluidEngine notifies its
// allocator of every change: FlowStarted when a flow joins, FlowFinished
// for each completed flow, and ActiveSetReset when the engine (re)starts
// from an empty set. An observing allocator must serve a single engine.
// It may hold a started flow's pointer until that flow finishes or the
// set resets, and no longer.
type ActiveSetObserver interface {
	FlowStarted(f *Flow)
	FlowFinished(f *Flow)
	ActiveSetReset()
}

// FaultObserver is optionally implemented by Allocators that maintain
// incremental state keyed on fabric capacities. When the engine crosses
// a fault change point (SetFaults), it first mutates the shared
// fault.State, then calls FaultTargetsChanged with exactly the links
// and hosts whose factor changed, before the next Allocate. Allocators
// without the interface simply recompute everything from the updated
// State on the next Allocate.
type FaultObserver interface {
	FaultTargetsChanged(targets []fault.Target)
}

// FluidEngine is a deterministic fluid-flow network simulator. At each
// event it integrates every active flow's remaining bytes up to the new
// frontier and lets the allocator re-rate the active set; an
// IncrementalAllocator keeps that refill scoped to the constraint
// components the event touched (see component.go).
type FluidEngine struct {
	name    string
	refRate float64
	alloc   Allocator
	obs     ActiveSetObserver // alloc, if it observes; else nil

	now    float64
	active []*Flow
	free   []*Flow // recycled Flow structs, reused by StartFlow
	nextID int
	dirty  bool
	done   []core.Completion // complete's scratch, reused across events

	faults *fault.Timeline // nil = static healthy fabric
	fobs   FaultObserver   // alloc, if it observes faults; else nil
}

// maxFreeFlows bounds the engine's Flow free list. One huge transient
// scheme would otherwise pin its peak flow count forever; structs beyond
// the cap are dropped to the garbage collector instead of retained.
const maxFreeFlows = 1 << 12

var _ core.Engine = (*FluidEngine)(nil)
var _ core.Resetter = (*FluidEngine)(nil)

// NewFluidEngine builds a fluid engine with the given allocator. refRate
// is the single-flow reference rate the allocator yields on an idle
// network (callers compute it from the allocator's parameters).
func NewFluidEngine(name string, refRate float64, alloc Allocator) *FluidEngine {
	if refRate <= 0 {
		panic("netsim: refRate must be positive")
	}
	e := &FluidEngine{name: name, refRate: refRate, alloc: alloc}
	if obs, ok := alloc.(ActiveSetObserver); ok {
		// An observing allocator holds per-engine state; sharing one
		// between engines would silently corrupt its tracked counts.
		claimAllocator(alloc)
		e.obs = obs
		obs.ActiveSetReset()
	}
	return e
}

// claimable is implemented by observers that must be owned by a single
// engine; claim returns false if already claimed.
type claimable interface {
	claim() bool
}

// claimAllocator takes single-engine ownership of alloc if it demands
// it, panicking when it already serves another engine.
func claimAllocator(alloc Allocator) {
	if c, ok := alloc.(claimable); ok && !c.claim() {
		panic("netsim: allocator is already attached to an engine")
	}
}

// SetFaults arms the engine with a compiled fault timeline: as the
// replay frontier crosses each change point, the timeline's shared
// fault.State is stepped in place and the allocator re-runs (scoped to
// the affected components when it implements FaultObserver). The caller
// is responsible for wiring the same timeline's State into the
// allocator's configuration (the substrate constructors do both); the
// engine only owns the clock side. Must be called before any flow has
// started; Reset rewinds the timeline along with the engine.
func (e *FluidEngine) SetFaults(tl *fault.Timeline) {
	if e.now != 0 || len(e.active) != 0 || e.nextID != 0 {
		panic("netsim: SetFaults on an engine that has already run; Reset first")
	}
	e.faults = tl
	if tl != nil {
		tl.Rewind()
		if fo, ok := e.alloc.(FaultObserver); ok {
			e.fobs = fo
		}
	}
}

// nextFaultTime returns the next pending fault change point.
func (e *FluidEngine) nextFaultTime() (float64, bool) {
	if e.faults == nil {
		return 0, false
	}
	return e.faults.Next()
}

// applyFaultStep advances the timeline one change point: the shared
// State mutates in place, incremental allocators learn which targets
// moved, and the active set is marked for reallocation.
func (e *FluidEngine) applyFaultStep() {
	targets := e.faults.Step()
	if e.fobs != nil {
		e.fobs.FaultTargetsChanged(targets)
	}
	e.dirty = true
}

// syncFaults applies every fault change point at or before the frontier.
// Only callers that know no rate integration is pending may use it (the
// active set is empty, or the interval was already integrated).
func (e *FluidEngine) syncFaults() {
	for {
		t, ok := e.nextFaultTime()
		if !ok || t > e.now {
			return
		}
		e.applyFaultStep()
	}
}

// Name implements core.Engine.
func (e *FluidEngine) Name() string { return e.name }

// RefRate implements core.Engine.
func (e *FluidEngine) RefRate() float64 { return e.refRate }

// Now returns the engine frontier.
func (e *FluidEngine) Now() float64 { return e.now }

// recycle returns a completed Flow struct to the free list, dropping it
// once the list is at capacity (see maxFreeFlows).
func (e *FluidEngine) recycle(f *Flow) {
	if len(e.free) < maxFreeFlows {
		e.free = append(e.free, f)
	}
}

// Reset implements core.Resetter.
func (e *FluidEngine) Reset() {
	e.now = 0
	for _, f := range e.active {
		e.recycle(f)
	}
	e.active = e.active[:0]
	e.nextID = 0
	e.dirty = false
	if e.obs != nil {
		e.obs.ActiveSetReset()
	}
	if e.faults != nil {
		e.faults.Rewind()
	}
}

// StartFlow implements core.Engine. now must be at or after the frontier
// and must not skip over a pending completion (that would be a driver
// bug, and is reported by panic).
func (e *FluidEngine) StartFlow(src, dst graph.NodeID, bytes float64, now float64) int {
	if now < e.now {
		panic(fmt.Sprintf("netsim: StartFlow at %g before frontier %g", now, e.now))
	}
	if bytes <= 0 {
		panic("netsim: StartFlow with non-positive volume")
	}
	if now > e.now {
		// Integrate piecewise across fault change points inside
		// (e.now, now): rates are only piecewise-constant between them.
		// A fault at exactly `now` is left pending — it applies after the
		// new flow starts, on the next Advance — so an arrival and a
		// fault at the same instant order deterministically.
		for {
			tf, ok := e.nextFaultTime()
			if !ok || tf >= now {
				break
			}
			if tf > e.now {
				if t, ok := e.nextCompletionTime(); ok && t < tf {
					panic(fmt.Sprintf("netsim: StartFlow at %g skips completion at %g", now, t))
				}
				e.integrateTo(tf)
			}
			e.applyFaultStep()
		}
		if t, ok := e.nextCompletionTime(); ok && t < now {
			panic(fmt.Sprintf("netsim: StartFlow at %g skips completion at %g", now, t))
		}
		e.integrateTo(now)
	}
	var f *Flow
	if n := len(e.free); n > 0 {
		f = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		f = new(Flow)
	}
	*f = Flow{ID: e.nextID, Src: src, Dst: dst, Remaining: bytes}
	e.nextID++
	e.active = append(e.active, f)
	e.dirty = true
	if e.obs != nil {
		e.obs.FlowStarted(f)
	}
	return f.ID
}

// Advance implements core.Engine. The returned slice is scratch owned by
// the engine and is valid only until the next Advance or StartFlow call;
// callers must consume (or copy) it first, which every bwshare driver
// already does.
func (e *FluidEngine) Advance(limit float64) ([]core.Completion, float64) {
	for {
		if len(e.active) == 0 {
			if limit > e.now {
				e.now = limit
			}
			// No rates to integrate; just keep the fault state current so
			// flows started at the new frontier see the degraded fabric.
			e.syncFaults()
			return nil, e.now
		}
		te, ok := e.nextCompletionTime()
		if tf, fok := e.nextFaultTime(); fok && tf <= limit && (!ok || tf < te) {
			// The fabric changes before the next completion: integrate the
			// constant-rate segment up to the change point, mutate the
			// capacity overlay, and re-enter the loop to reallocate. A
			// completion tying with a fault (te == tf) is reported first;
			// the fault applies on the next iteration or Advance call.
			e.integrateTo(tf)
			e.applyFaultStep()
			continue
		}
		if !ok || te > limit {
			e.integrateTo(limit)
			return nil, e.now
		}
		done := e.complete(te)
		if len(done) == 0 {
			// Numerical stall: te was computed as the earliest finish
			// time, but at a large clock value the remaining time of the
			// due flow can be below float64 resolution, so integration
			// leaves a residual above completionEps (or te == now and
			// nothing moves at all). The flows that determined te are
			// due now by construction; complete them explicitly.
			done = e.forceReapDue(te)
		}
		if len(done) > 0 {
			return done, e.now
		}
	}
}

// forceReapDue finishes the flows whose completion time equals t within
// float tolerance (the argmin set of nextCompletionTime). It guarantees
// progress when byte-space reaping stalls on rounding. Flows already
// inside the completionEps byte threshold are due regardless of rate, so
// this path and complete's byte test agree on what counts as finished.
func (e *FluidEngine) forceReapDue(t float64) []core.Completion {
	slack := 1e-12 * (1 + math.Abs(t))
	for _, f := range e.active {
		if f.Remaining <= completionEps || (f.Rate > 0 && f.Remaining/f.Rate <= slack) {
			f.Remaining = 0
		}
	}
	return e.complete(t)
}

// nextCompletionTime re-rates the active set if it changed, then returns
// the earliest finish time among active flows at current rates. Flows
// with zero rate never finish — except flows already within
// completionEps of done, which are due immediately: a sub-epsilon volume
// (or an integration residue) paired with a zero rate would otherwise
// never be reported and hang replay. New rates are validated in the
// same pass.
func (e *FluidEngine) nextCompletionTime() (float64, bool) {
	fresh := e.dirty
	if fresh {
		e.alloc.Allocate(e.active)
		e.dirty = false
	}
	best, due := math.Inf(1), false
	for _, f := range e.active {
		if fresh && (f.Rate < 0 || math.IsNaN(f.Rate)) {
			panic(fmt.Sprintf("netsim: allocator produced invalid rate %g", f.Rate))
		}
		if f.Remaining <= completionEps {
			due = true // nothing can be earlier than the frontier
			continue
		}
		if f.Rate <= 0 {
			continue
		}
		t := e.now + f.Remaining/f.Rate
		if t < best {
			best = t
		}
	}
	if due {
		return e.now, true
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}

// integrateTo moves every active flow to time t at its current rate.
// The rates must be current: every caller asks nextCompletionTime
// first, which re-rates a changed set.
func (e *FluidEngine) integrateTo(t float64) {
	if t <= e.now {
		return
	}
	dt := t - e.now
	for _, f := range e.active {
		f.integrate(dt)
	}
	e.now = t
}

// integrate moves f forward dt seconds at its current rate. The
// product is rounded on its own (no fused multiply-add), so every
// architecture takes the same bits.
func (f *Flow) integrate(dt float64) {
	f.Remaining -= float64(f.Rate * dt)
	if f.Remaining < 0 {
		f.Remaining = 0
	}
}

// complete is integrateTo(t) and the reaping of finished flows in one
// pass, with the same per-flow arithmetic: it returns their completions
// at time t. Completed Flow structs go back to the free list for reuse.
// The returned slice is engine-owned scratch (see Advance), reused
// across calls so the steady-state event loop allocates nothing.
func (e *FluidEngine) complete(t float64) []core.Completion {
	dt := t - e.now
	move := dt > 0
	done := e.done[:0]
	keep := e.active[:0]
	for _, f := range e.active {
		if move {
			f.integrate(dt)
		}
		if f.Remaining <= completionEps {
			done = append(done, core.Completion{Flow: f.ID, Time: t})
			if e.obs != nil {
				e.obs.FlowFinished(f)
			}
			e.recycle(f)
		} else {
			keep = append(keep, f)
		}
	}
	e.active = keep
	e.done = done
	if move {
		e.now = t
	}
	if len(done) > 0 {
		e.dirty = true
	}
	return done
}
