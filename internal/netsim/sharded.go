package netsim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"bwshare/internal/core"
	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/topology"
)

// Sharded component-lazy engine core.
//
// The coupled allocation decomposes over connected components of the
// flow constraint graph (see incremental.go); this file exploits the
// same decomposition one level up, in the engine itself. The core keeps
// a slotIndex (component.go) over the active flows, the same index type
// IncrementalAllocator keeps per shard, and routes every event —
// StartFlow, completion, fault step — to the constraint components it
// touches. Flows of untouched components are left alone entirely: their
// Remaining is not integrated and their cached completion deadline is
// not recomputed. A flow's byte state is
// therefore valid at its private sync point (Flow.synced), not at the
// engine frontier, and is only brought forward when an event touches
// its component. Per event, work scales with the touched component plus
// one O(shards) minimum scan, instead of with the whole active set.
//
// Components are distributed over worker shards. Each shard owns its
// active sub-slice (flow-id ordered), its own Allocator instance, flow
// free list and completion scratch, so a refresh or reap phase runs on
// the dirty shards with no shared mutable state; the coordinator then
// merges per-shard completions in flow-id order (all completions of one
// Advance share a single time) — the deterministic barrier merge. When
// a new flow bridges components owned by different shards, the smaller
// components migrate to the shard owning the largest one before the
// flow starts.
//
// Determinism contract: for a fixed shard count, replays are exactly
// reproducible. Across shard counts results are bit-identical, because
// every quantity that feeds the arithmetic is shard-count-independent:
// which components an event touches is decided by this engine-level
// index (whose unions and amortized rebuilds are driven by global event
// and removal counters, never by per-shard state), rates are
// component-exact by the ComponentAllocator contract, and the global
// next-completion time is a min over cached deadlines, which is
// associative. Shard placement decides only where a component's
// arithmetic runs, never what it computes.
//
// The sequential eager core in netsim.go remains the reference
// semantics for non-component allocators; the two cores agree on every
// observable completion up to float64 rounding of the integration
// order, and bit-exactly on single-component workloads.

// ComponentAllocator marks an Allocator whose fills decompose exactly
// over the connected components of the flow constraint graph induced by
// its topology: the rates of a component depend only on that
// component's member flows (in slice order), the allocator
// configuration and the fault state. The sharded engine core relies on
// this to refill touched components without consulting the rest of the
// active set. ComponentTopology returns the fabric whose switch
// adjacency defines the components (sender NIC, receiver NIC, and on a
// multi-switch fabric the edge uplink/downlink of crossing flows).
type ComponentAllocator interface {
	Allocator
	ComponentTopology() topology.Spec
}

// engineShard owns the flows of a set of constraint components: their
// slice (flow-id ordered), the Allocator instance that fills them, a
// bounded flow free list and per-phase scratch. All mutable state is
// confined to the shard, so phase work on distinct shards is data-race
// free by construction.
type engineShard struct {
	alloc Allocator
	obs   ActiveSetObserver // alloc, if it observes; else nil
	fobs  FaultObserver     // alloc, if it observes faults; else nil

	active []*Flow
	free   []*Flow
	done   []core.Completion // completions of the current reap phase

	dirty    bool    // some owned component needs refresh
	touchAll bool    // coarse mode: treat every flow as touched
	seen     uint64  // touch-epoch watermark of the last refresh
	min      float64 // min cached deadline over active; +Inf when none
	nrem     int     // flows removed by the current reap phase
}

func (s *engineShard) recycle(f *Flow) {
	if len(s.free) < maxFreeFlows {
		s.free = append(s.free, f)
	}
}

// getFlow pops a recycled Flow for shard target. A flow is recycled on
// the shard it completes on, which after a component migration is not
// the one it started on, so an empty list borrows from the other
// shards before allocating. Runs between phases only.
func (c *shardedCore) getFlow(target int) *Flow {
	for i := range c.shards {
		s := c.shards[(target+i)%len(c.shards)]
		if n := len(s.free); n > 0 {
			f := s.free[n-1]
			s.free = s.free[:n-1]
			return f
		}
	}
	return new(Flow)
}

// allocate refills the shard's flows (the allocator scopes the work to
// its own dirty components) and validates the written rates.
func (s *engineShard) allocate() {
	if len(s.active) == 0 {
		return
	}
	s.alloc.Allocate(s.active)
	for _, f := range s.active {
		if f.Rate < 0 || math.IsNaN(f.Rate) {
			panic(fmt.Sprintf("netsim: allocator produced invalid rate %g", f.Rate))
		}
	}
}

// shardedCore is the coordinator: the engine-level routing index
// (constraint slots + union-find + per-root shard ownership), the
// frontier, the fault timeline, and the phase scheduler that fans
// refresh/reap work out to the shards.
type shardedCore struct {
	shards []*engineShard

	now    float64
	nextID int
	nlive  int // live flows across all shards
	epoch  uint64
	coarse bool // an out-of-range node id collapsed routing to shard 0

	// idx routes events by component; its touch stamps hold the epoch
	// of the last event touching each component and its removals count
	// completions since the last compaction. owner and csize are per
	// slot and authoritative at component roots: the owning shard and
	// the live flow count.
	idx   slotIndex
	owner []int32
	csize []int32

	faults *fault.Timeline // nil = static healthy fabric

	done      []core.Completion // merged completions, engine-owned scratch
	phaseList []*engineShard    // shards selected for the current phase
	mig       []*Flow           // migration extraction scratch
	mergeBuf  []*Flow           // migration merge scratch

	inOp atomic.Bool // single-driver misuse detector
}

// newShardedCore wires one allocator per shard. Observing allocators
// are armed immediately (ActiveSetReset), mirroring NewFluidEngine.
func newShardedCore(nshards int, allocs []Allocator, topo topology.Spec) *shardedCore {
	c := &shardedCore{idx: slotIndex{topo: topo}}
	c.shards = make([]*engineShard, nshards)
	for i, a := range allocs {
		s := &engineShard{alloc: a, min: math.Inf(1)}
		if obs, ok := a.(ActiveSetObserver); ok {
			s.obs = obs
			obs.ActiveSetReset()
		}
		if fo, ok := a.(FaultObserver); ok {
			s.fobs = fo
		}
		c.shards[i] = s
	}
	c.phaseList = make([]*engineShard, nshards)
	return c
}

// NewShardedFluidEngine builds a fluid engine whose Advance fans
// independent constraint components out over nshards worker shards.
// factory must return a fresh ComponentAllocator per call (one per
// shard, identically configured); an allocator that demands single-
// engine ownership is claimed, so returning a shared instance panics.
// nshards < 1 is clamped to 1. Results are bit-identical across shard
// counts; see the determinism contract in this file's package section.
func NewShardedFluidEngine(name string, refRate float64, nshards int, factory func() Allocator) *FluidEngine {
	if refRate <= 0 {
		panic("netsim: refRate must be positive")
	}
	if nshards < 1 {
		nshards = 1
	}
	allocs := make([]Allocator, nshards)
	var topo topology.Spec
	for i := range allocs {
		a := factory()
		ca, ok := a.(ComponentAllocator)
		if !ok {
			panic("netsim: sharded engine requires a component-exact allocator (ComponentAllocator)")
		}
		if i == 0 {
			topo = ca.ComponentTopology()
		} else if ca.ComponentTopology() != topo {
			panic("netsim: shard allocators disagree on topology")
		}
		claimAllocator(a)
		allocs[i] = a
	}
	e := &FluidEngine{name: name, refRate: refRate, alloc: allocs[0]}
	e.sh = newShardedCore(nshards, allocs, topo)
	return e
}

// enter/exit guard the single-driver contract: engine methods must not
// overlap. A second goroutine calling into the engine mid-operation is
// a driver bug that would corrupt shard state; detect it and panic.
func (c *shardedCore) enter() {
	if !c.inOp.CompareAndSwap(false, true) {
		panic("netsim: concurrent engine call; a FluidEngine is single-driver (StartFlow/Advance/Reset must not overlap)")
	}
}

func (c *shardedCore) exit() { c.inOp.Store(false) }

// setFaults mirrors FluidEngine.SetFaults for the sharded core.
func (c *shardedCore) setFaults(tl *fault.Timeline) {
	if c.now != 0 || c.nlive != 0 || c.nextID != 0 {
		panic("netsim: SetFaults on an engine that has already run; Reset first")
	}
	c.faults = tl
	if tl != nil {
		tl.Rewind()
	}
}

func (c *shardedCore) nextFaultTime() (float64, bool) {
	if c.faults == nil {
		return 0, false
	}
	return c.faults.Next()
}

// stepFault advances the timeline one change point: the shared State
// mutates in place, the touched components' shards are marked dirty (so
// their flows integrate the segment ending here at the old rates before
// the new capacities apply), and every shard allocator learns which
// targets moved.
func (c *shardedCore) stepFault() {
	targets := c.faults.Step()
	c.epoch++
	if c.coarse {
		c.shards[0].touchAll = true
		c.shards[0].dirty = true
	} else {
		for _, t := range targets {
			for _, sl := range c.idx.faultSlots(t) {
				if sl < 0 {
					continue
				}
				// Mark the owning shard dirty when the component holds
				// live flows.
				if r := c.idx.stamp(sl, c.epoch); c.csize[r] > 0 {
					c.shards[c.owner[r]].dirty = true
				}
			}
		}
	}
	for _, s := range c.shards {
		if s.fobs != nil {
			s.fobs.FaultTargetsChanged(targets)
		}
	}
}

// syncFaults applies every change point at or before the frontier. Only
// valid when no live flow exists (nothing to integrate).
func (c *shardedCore) syncFaults() {
	for {
		t, ok := c.nextFaultTime()
		if !ok || t > c.now {
			return
		}
		c.stepFault()
	}
}

// flowDeadline returns the completion time of f as of its sync point.
// Flows at or under the completion threshold are due now; flows with no
// rate never finish unless already due (mirroring the sequential
// engine's nextCompletionTime).
func flowDeadline(f *Flow, now float64) float64 {
	if f.Remaining <= completionEps {
		return now
	}
	if f.Rate <= 0 {
		return math.Inf(1)
	}
	return now + f.Remaining/f.Rate
}

// refresh brings a dirty shard to the frontier: flows of touched
// components integrate the elapsed segment at their previous rates, the
// allocator refills (scoped to its own dirty components), touched flows
// recompute their cached deadlines, and the shard minimum is rescanned.
// Pure shard-local work plus read-only coordinator state: safe to run
// on phase workers.
func (s *engineShard) refresh(c *shardedCore) {
	now := c.now
	all := s.touchAll
	s.touchAll = false
	for _, f := range s.active {
		f.touched = all || c.idx.touch[c.idx.uf.findRO(f.slot)] > s.seen
		if f.touched {
			if dt := now - f.synced; dt > 0 {
				f.Remaining -= f.Rate * dt
				if f.Remaining < 0 {
					f.Remaining = 0
				}
			}
			f.synced = now
		}
	}
	s.allocate()
	min := math.Inf(1)
	for _, f := range s.active {
		if f.touched {
			f.deadline = flowDeadline(f, now)
		}
		if f.deadline < min {
			min = f.deadline
		}
	}
	s.min = min
	s.seen = c.epoch
	s.dirty = false
}

// reapAt completes the shard's flows due at te (the global minimum
// deadline, == the frontier): the components of due flows are stamped,
// touched flows integrate the closing segment at pre-completion rates,
// due flows are removed and reported, survivors refill and re-deadline.
// Runs on phase workers; the touch stamps written here live at roots of
// components owned by this shard, so writes stay disjoint across
// shards.
func (s *engineShard) reapAt(c *shardedCore, te float64) {
	epoch := c.epoch
	all := s.touchAll
	s.touchAll = false
	if !all {
		for _, f := range s.active {
			if f.deadline <= te {
				c.idx.touch[c.idx.uf.findRO(f.slot)] = epoch
			}
		}
	}
	for _, f := range s.active {
		f.touched = all || c.idx.touch[c.idx.uf.findRO(f.slot)] > s.seen
		if f.touched {
			if dt := te - f.synced; dt > 0 {
				f.Remaining -= f.Rate * dt
				if f.Remaining < 0 {
					f.Remaining = 0
				}
			}
			f.synced = te
		}
	}
	s.done = s.done[:0]
	s.nrem = 0
	keep := s.active[:0]
	for _, f := range s.active {
		if f.deadline <= te {
			f.Remaining = 0
			s.done = append(s.done, core.Completion{Flow: f.ID, Time: te})
			if s.obs != nil {
				s.obs.FlowFinished(f)
			}
			if !c.coarse {
				c.csize[c.idx.uf.findRO(f.slot)]--
			}
			s.recycle(f)
			s.nrem++
		} else {
			keep = append(keep, f)
		}
	}
	s.active = keep
	s.allocate()
	min := math.Inf(1)
	for _, f := range s.active {
		if f.touched {
			f.deadline = flowDeadline(f, te)
		}
		if f.deadline < min {
			min = f.deadline
		}
	}
	s.min = min
	s.seen = epoch
	s.dirty = false
}

// runPhase executes a shard phase (refresh or reap) over list. With one
// usable worker the phase runs inline — the zero-allocation path; with
// more, workers pull shards off an atomic cursor and any panic is
// re-raised on the coordinator goroutine after the barrier.
func (c *shardedCore) runPhase(list []*engineShard, te float64, reap bool) {
	n := len(list)
	if n == 0 {
		return
	}
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w <= 1 {
		for _, s := range list {
			if reap {
				s.reapAt(c, te)
			} else {
				s.refresh(c)
			}
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicVal any
	)
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicVal == nil {
						panicVal = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				j := int(next.Add(1)) - 1
				if j >= n {
					return
				}
				if reap {
					list[j].reapAt(c, te)
				} else {
					list[j].refresh(c)
				}
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// refreshDirty brings every dirty shard to the frontier. The frontier
// only ever moves after this runs, which is what makes the lazy
// integration exact: each component integrates precisely over the
// constant-rate segments between the events that touch it.
func (c *shardedCore) refreshDirty() {
	n := 0
	for _, s := range c.shards {
		if s.dirty {
			c.phaseList[n] = s
			n++
		}
	}
	c.runPhase(c.phaseList[:n], 0, false)
}

// completionTime returns the earliest cached deadline across shards,
// refreshing dirty shards first.
func (c *shardedCore) completionTime() (float64, bool) {
	if c.nlive == 0 {
		return 0, false
	}
	c.refreshDirty()
	te := math.Inf(1)
	for _, s := range c.shards {
		if s.min < te {
			te = s.min
		}
	}
	if math.IsInf(te, 1) {
		return 0, false
	}
	return te, true
}

// advance implements Engine.Advance on the sharded core.
func (c *shardedCore) advance(limit float64) ([]core.Completion, float64) {
	c.enter()
	defer c.exit()
	c.maybeRebuild()
	for {
		if c.nlive == 0 {
			if limit > c.now {
				c.now = limit
			}
			c.syncFaults()
			return nil, c.now
		}
		c.refreshDirty()
		te := math.Inf(1)
		for _, s := range c.shards {
			if s.min < te {
				te = s.min
			}
		}
		haveTe := !math.IsInf(te, 1)
		if tf, fok := c.nextFaultTime(); fok && tf <= limit && (!haveTe || tf < te) {
			// The fabric changes before the next completion. All shards
			// are refreshed, so moving the frontier is safe: the flows
			// the fault touches integrate [synced, tf] at the old rates
			// on the next refresh. A completion tying with a fault
			// (te == tf) is reported first, as on the sequential core.
			c.now = tf
			c.stepFault()
			continue
		}
		if !haveTe || te > limit {
			if limit > c.now {
				c.now = limit
			}
			return nil, c.now
		}
		c.now = te
		return c.reapAll(te), c.now
	}
}

// reapAll runs the reap phase on every shard holding a due flow and
// merges their completions in flow-id order (all share time te) — the
// deterministic barrier merge.
func (c *shardedCore) reapAll(te float64) []core.Completion {
	c.epoch++
	n := 0
	for _, s := range c.shards {
		if s.min <= te {
			c.phaseList[n] = s
			n++
		}
	}
	c.runPhase(c.phaseList[:n], te, true)
	c.done = c.done[:0]
	for i := 0; i < n; i++ {
		c.done = append(c.done, c.phaseList[i].done...)
		c.idx.removals += c.phaseList[i].nrem
		c.nlive -= c.phaseList[i].nrem
	}
	// Insertion sort by flow id: completion batches are small and often
	// single-shard (already sorted), and this keeps the reap path free
	// of sort.Slice's closure allocation.
	for i := 1; i < len(c.done); i++ {
		d := c.done[i]
		j := i - 1
		for j >= 0 && c.done[j].Flow > d.Flow {
			c.done[j+1] = c.done[j]
			j--
		}
		c.done[j+1] = d
	}
	return c.done
}

// startFlow implements Engine.StartFlow on the sharded core.
func (c *shardedCore) startFlow(src, dst graph.NodeID, bytes float64, now float64) int {
	c.enter()
	defer c.exit()
	if now < c.now {
		panic(fmt.Sprintf("netsim: StartFlow at %g before frontier %g", now, c.now))
	}
	if bytes <= 0 {
		panic("netsim: StartFlow with non-positive volume")
	}
	c.maybeRebuild()
	if now > c.now {
		// Cross fault change points inside (c.now, now) one segment at
		// a time; a fault at exactly `now` stays pending so arrivals
		// and faults at one instant order deterministically.
		for {
			tf, ok := c.nextFaultTime()
			if !ok || tf >= now {
				break
			}
			if tf > c.now {
				if t, ok := c.completionTime(); ok && t < tf {
					panic(fmt.Sprintf("netsim: StartFlow at %g skips completion at %g", now, t))
				}
				c.now = tf
			}
			c.stepFault()
		}
		if t, ok := c.completionTime(); ok && t < now {
			panic(fmt.Sprintf("netsim: StartFlow at %g skips completion at %g", now, t))
		}
		c.now = now
	}
	return c.addFlow(src, dst, bytes)
}

// addFlow routes a new flow to its owning shard, migrating and merging
// component state when the flow bridges components owned by different
// shards, and stamps the (possibly merged) component touched.
func (c *shardedCore) addFlow(src, dst graph.NodeID, bytes float64) int {
	c.epoch++
	if !c.coarse && (src < 0 || dst < 0 || int(src) >= maxDenseNode || int(dst) >= maxDenseNode) {
		c.enterCoarse()
	}
	var (
		slot   int32
		target int
	)
	if c.coarse {
		target = 0
		c.shards[0].touchAll = true
	} else {
		slot, target = c.place(src, dst)
	}
	s := c.shards[target]
	f := c.getFlow(target)
	*f = Flow{
		ID: c.nextID, Src: src, Dst: dst, Remaining: bytes,
		synced: c.now, deadline: math.Inf(1), slot: slot,
	}
	c.nextID++
	c.nlive++
	s.active = append(s.active, f) // new id is the maximum: order holds
	s.dirty = true
	if s.obs != nil {
		s.obs.FlowStarted(f)
	}
	return f.ID
}

// place interns the new flow's constraint slots, picks its owning
// shard, migrates smaller components when the flow bridges components
// on different shards, unions everything and stamps the merged root.
// Returns (sender slot, shard index).
func (c *shardedCore) place(src, dst graph.NodeID) (int32, int) {
	var sl [4]int32
	touched := sl[:c.idx.slots(src, dst, &sl)]
	for n := c.idx.numSlots(); len(c.owner) < n; {
		c.owner = append(c.owner, -1)
		c.csize = append(c.csize, 0)
	}
	// Distinct roots holding live flows among the touched slots.
	var lives [4]int32
	nl := 0
	for _, s := range touched {
		r := c.idx.uf.find(s)
		if c.csize[r] <= 0 {
			continue
		}
		dup := false
		for i := 0; i < nl; i++ {
			if lives[i] == r {
				dup = true
				break
			}
		}
		if !dup {
			lives[nl] = r
			nl++
		}
	}
	var target int
	total := int32(0)
	switch nl {
	case 0:
		target = c.leastLoaded()
	case 1:
		target = int(c.owner[lives[0]])
		total = c.csize[lives[0]]
	default:
		// The flow bridges several live components: they merge into one,
		// owned by the shard holding the largest (ties: lowest shard
		// index); the others migrate there.
		best, tgt := int32(-1), int32(0)
		for i := 0; i < nl; i++ {
			r := lives[i]
			total += c.csize[r]
			if c.csize[r] > best || (c.csize[r] == best && c.owner[r] < tgt) {
				best, tgt = c.csize[r], c.owner[r]
			}
		}
		target = int(tgt)
		for i := 0; i < nl; i++ {
			if r := lives[i]; int(c.owner[r]) != target {
				c.moveComp(r, int(c.owner[r]), target)
			}
		}
	}
	root := c.idx.join(touched)
	c.owner[root] = int32(target)
	c.csize[root] = total + 1
	c.idx.touch[root] = c.epoch
	return sl[0], target
}

// leastLoaded returns the shard with the fewest active flows (ties:
// lowest index) — the home for a brand-new component.
func (c *shardedCore) leastLoaded() int {
	best, n := 0, len(c.shards[0].active)
	for i := 1; i < len(c.shards); i++ {
		if len(c.shards[i].active) < n {
			best, n = i, len(c.shards[i].active)
		}
	}
	return best
}

// moveComp migrates the flows of component root r from shard `from` to
// shard `to`, keeping both actives flow-id ordered. The source
// allocator sees each migrated flow depart and the target allocator
// sees it arrive, so both incremental views stay consistent; the
// component is about to be stamped touched, so the redundant refill on
// both sides rewrites bit-identical rates.
func (c *shardedCore) moveComp(r int32, from, to int) {
	src, dst := c.shards[from], c.shards[to]
	c.mig = c.mig[:0]
	keep := src.active[:0]
	for _, f := range src.active {
		if c.idx.uf.find(f.slot) == r {
			c.mig = append(c.mig, f)
		} else {
			keep = append(keep, f)
		}
	}
	src.active = keep
	c.mergeInto(dst, c.mig)
	for _, f := range c.mig {
		if src.obs != nil {
			src.obs.FlowFinished(f)
		}
		if dst.obs != nil {
			dst.obs.FlowStarted(f)
		}
	}
	clearFlowPtrs(c.mig)
	src.dirty = true
	dst.dirty = true
}

// mergeInto merges moved (flow-id ascending) into dst.active (likewise)
// preserving global flow-id order.
func (c *shardedCore) mergeInto(dst *engineShard, moved []*Flow) {
	c.mergeBuf = c.mergeBuf[:0]
	i, j := 0, 0
	for i < len(dst.active) && j < len(moved) {
		if dst.active[i].ID < moved[j].ID {
			c.mergeBuf = append(c.mergeBuf, dst.active[i])
			i++
		} else {
			c.mergeBuf = append(c.mergeBuf, moved[j])
			j++
		}
	}
	c.mergeBuf = append(c.mergeBuf, dst.active[i:]...)
	c.mergeBuf = append(c.mergeBuf, moved[j:]...)
	dst.active = append(dst.active[:0], c.mergeBuf...)
	clearFlowPtrs(c.mergeBuf)
}

// clearFlowPtrs drops retained flow pointers from scratch (a kept
// pointer would pin structs the free-list cap meant to release).
func clearFlowPtrs(buf []*Flow) {
	for i := range buf {
		buf[i] = nil
	}
}

// enterCoarse handles a node id outside the dense range: per-component
// routing is abandoned for the run — every flow migrates to shard 0 and
// every subsequent event touches everything there. The shard allocators
// disarm their own tracking on the same condition and fall back to the
// reference path, so results stay correct, just unscoped. Touch-all is
// shard-count-independent, preserving the determinism contract.
func (c *shardedCore) enterCoarse() {
	c.coarse = true
	s0 := c.shards[0]
	for i := 1; i < len(c.shards); i++ {
		s := c.shards[i]
		if len(s.active) == 0 {
			continue
		}
		c.mig = append(c.mig[:0], s.active...)
		clearFlowPtrs(s.active)
		s.active = s.active[:0]
		c.mergeInto(s0, c.mig)
		for _, f := range c.mig {
			if s.obs != nil {
				s.obs.FlowFinished(f)
			}
			if s0.obs != nil {
				s0.obs.FlowStarted(f)
			}
		}
		clearFlowPtrs(c.mig)
		s.dirty = true
	}
	s0.touchAll = true
	s0.dirty = true
}

// maybeRebuild re-derives the routing index from the live flows once
// enough departures accumulate: the persistent union-find only accretes
// unions, so after removals it over-approximates connectivity (touching
// a superset of flows — harmless: refreshing an unchanged component
// rewrites identical values). The trigger reads only the global event
// counters, never per-shard state, so rebuilds happen at the same
// events regardless of shard count — keeping touch sets, and therefore
// every integration instant, shard-count-independent. Pending touch
// stamps are consumed by a full refresh first, since the rebuild clears
// them. Slots keep their numbers, so each flow's sender slot stays
// valid.
func (c *shardedCore) maybeRebuild() {
	if c.coarse || !c.idx.compactDue(c.nlive) {
		return
	}
	c.refreshDirty()
	c.idx.unlink()
	clear(c.csize)
	for _, s := range c.shards {
		for _, f := range s.active {
			c.idx.link(f)
		}
	}
	for si, s := range c.shards {
		for _, f := range s.active {
			r := c.idx.uf.find(f.slot)
			c.owner[r] = int32(si)
			c.csize[r]++
		}
	}
}

// reset mirrors FluidEngine.Reset for the sharded core; it allocates
// nothing so engines reused across experiment repetitions stay on the
// zero-allocation steady state.
func (c *shardedCore) reset() {
	c.enter()
	defer c.exit()
	c.now = 0
	c.nextID = 0
	c.nlive = 0
	c.epoch = 0
	c.coarse = false
	for _, s := range c.shards {
		for _, f := range s.active {
			s.recycle(f)
		}
		clearFlowPtrs(s.active)
		s.active = s.active[:0]
		s.done = s.done[:0]
		s.dirty = false
		s.touchAll = false
		s.seen = 0
		s.min = math.Inf(1)
		s.nrem = 0
		if s.obs != nil {
			s.obs.ActiveSetReset()
		}
	}
	c.resetIndex()
	c.done = c.done[:0]
	if c.faults != nil {
		c.faults.Rewind()
	}
}

// resetIndex empties the routing index, keeping steady-state capacity
// but shedding what one huge transient run inflated (see
// slotIndex.reset).
func (c *shardedCore) resetIndex() {
	c.idx.reset()
	if cap(c.owner) > maxPooledScratchLen {
		c.owner, c.csize = nil, nil
	}
	if cap(c.mig) > maxPooledScratchLen || cap(c.mergeBuf) > maxPooledScratchLen {
		c.mig, c.mergeBuf = nil, nil
	}
	c.owner = c.owner[:0]
	c.csize = c.csize[:0]
}
