package netsim

import (
	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/topology"
)

// Constraint components.
//
// Two flows interact only if they share a sender NIC, a receiver NIC,
// or — on a multi-switch fabric, for flows crossing edge switches — the
// source switch's uplink or the destination switch's downlink. The
// connected components of that constraint graph are the unit every
// component-scoped part of this package works on: IncrementalAllocator
// refills only the components an event touched, the sharded engine core
// (sharded.go) routes events and places flows by component, and the
// parallel prediction sessions of internal/predict score their model
// once per component. They share the two types of this file:
//
//   - slotIndex, the persistent constraint-slot index: one interning
//     table per namespace, a union-find over the slots and a per-slot
//     touch stamp. It only ever accretes unions, so after departures it
//     over-approximates connectivity; its owner compacts it once enough
//     removals accumulate (compactDue).
//   - ComponentGrouper, the exact transient grouping of one flow slice:
//     components in first-flow order, slice order inside each.

// unionFind is a slot-indexed union-find with union by rank and path
// halving.
type unionFind struct {
	parent []int32
	rank   []uint8
}

// grow extends the structure to n singleton slots.
func (u *unionFind) grow(n int) {
	for len(u.parent) < n {
		u.parent = append(u.parent, int32(len(u.parent)))
		u.rank = append(u.rank, 0)
	}
}

// resize makes the structure exactly n singletons, keeping capacity.
func (u *unionFind) resize(n int) {
	u.parent = u.parent[:0]
	u.rank = u.rank[:0]
	u.grow(n)
}

// reset returns every slot to a singleton without shrinking.
func (u *unionFind) reset() {
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.rank[i] = 0
	}
}

// find returns the root of x with path halving.
func (u *unionFind) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// findRO returns the root of x without path compression — safe for
// phase workers to call concurrently while the coordinator is parked at
// the phase barrier (union by rank keeps chains logarithmic).
func (u *unionFind) findRO(x int32) int32 {
	for u.parent[x] != x {
		x = u.parent[x]
	}
	return x
}

// union merges the sets of x and y and returns (surviving root, absorbed
// root); both are the common root when the sets were already one.
func (u *unionFind) union(x, y int32) (int32, int32) {
	rx, ry := u.find(x), u.find(y)
	if rx == ry {
		return rx, rx
	}
	if u.rank[rx] < u.rank[ry] {
		rx, ry = ry, rx
	} else if u.rank[rx] == u.rank[ry] {
		u.rank[rx]++
	}
	u.parent[ry] = rx
	return rx, ry
}

// compactionFloor is the minimum number of departures before a
// persistent slot index is re-derived from the live flows. Together
// with the >= live-flow-count condition it amortizes the linear
// re-derivation to constant work per event.
const compactionFloor = 64

// slotTable maps the ids of one namespace to slots (-1 = none yet): an
// id in [0, maxDenseNode) indexes a flat slice, any other id a small
// overflow map.
type slotTable struct {
	dense []int32
	big   map[int]int32
}

// get returns the slot of id, or -1 if it has none.
func (t *slotTable) get(id int) int32 {
	if uint(id) < uint(len(t.dense)) {
		return t.dense[id]
	}
	if s, ok := t.big[id]; ok {
		return s
	}
	return -1
}

// oversized reports whether one huge run inflated the table past the
// retention cap.
func (t *slotTable) oversized() bool {
	return len(t.dense) > maxPooledScratchLen || len(t.big) > maxPooledScratchLen
}

// clear unassigns every id, keeping capacity.
func (t *slotTable) clear() {
	for i := range t.dense {
		t.dense[i] = -1
	}
	clear(t.big)
}

// slotIndex is the persistent constraint-slot index over the active
// flows of one engine run. Slots are interned per namespace on first
// sight: senders and receivers by node id, uplinks and downlinks by
// edge-switch id, and they keep their number until reset. touch is per
// slot and authoritative at union-find roots: the epoch of the last
// event that touched the component, merged by max on union. Owners keep
// their per-component payloads in slices indexed by slot, grown to
// numSlots after interning.
type slotIndex struct {
	topo     topology.Spec
	snd, rcv slotTable
	up, dn   slotTable
	uf       unionFind
	touch    []uint64
	removals int // departures since the last compaction, counted by the owner
}

// numSlots returns the number of interned slots.
func (x *slotIndex) numSlots() int { return len(x.touch) }

// intern returns the slot for id in the namespace table t, issuing a
// fresh singleton slot on first sight.
func (x *slotIndex) intern(t *slotTable, id int) int32 {
	if s := t.get(id); s >= 0 {
		return s
	}
	s := int32(len(x.touch))
	x.uf.grow(int(s) + 1)
	x.touch = append(x.touch, 0)
	if id < 0 || id >= maxDenseNode {
		if t.big == nil {
			t.big = make(map[int]int32)
		}
		t.big[id] = s
		return s
	}
	for len(t.dense) <= id {
		t.dense = append(t.dense, -1)
	}
	t.dense[id] = s
	return s
}

// slots interns the constraint slots of a flow from src to dst into sl
// — sender, receiver, and for a flow crossing edge switches the source
// uplink and destination downlink — and returns how many it set (2 or
// 4).
func (x *slotIndex) slots(src, dst graph.NodeID, sl *[4]int32) int {
	sl[0], sl[1] = x.intern(&x.snd, int(src)), x.intern(&x.rcv, int(dst))
	if !x.topo.Trivial() {
		if ss, ds := x.topo.SwitchOf(src), x.topo.SwitchOf(dst); ss != ds {
			sl[2], sl[3] = x.intern(&x.up, ss), x.intern(&x.dn, ds)
			return 4
		}
	}
	return 2
}

// union merges the components of slots a and b, carrying the newer
// touch stamp to the surviving root, and returns that root.
func (x *slotIndex) union(a, b int32) int32 {
	r, lost := x.uf.union(a, b)
	if x.touch[lost] > x.touch[r] {
		x.touch[r] = x.touch[lost]
	}
	return r
}

// join unions the slots sl (as set by slots) and returns the component
// root.
func (x *slotIndex) join(sl []int32) int32 {
	r := sl[0]
	for _, s := range sl[1:] {
		r = x.union(r, s)
	}
	return r
}

// link interns and unions f's constraint slots and returns the root.
func (x *slotIndex) link(f *Flow) int32 {
	var sl [4]int32
	return x.join(sl[:x.slots(f.Src, f.Dst, &sl)])
}

// root returns the component root of f, whose slots must be interned.
func (x *slotIndex) root(f *Flow) int32 { return x.uf.find(x.snd.get(int(f.Src))) }

// stamp sets the touch stamp of slot s's component and returns its root.
func (x *slotIndex) stamp(s int32, epoch uint64) int32 {
	r := x.uf.find(s)
	x.touch[r] = epoch
	return r
}

// faultSlots returns the slots of the resources a fault target degrades
// — a link target's uplink and downlink, a host target's sender and
// receiver NIC — or -1 where no active flow has interned one.
func (x *slotIndex) faultSlots(t fault.Target) [2]int32 {
	switch t.Kind {
	case fault.TargetLink:
		return [2]int32{x.up.get(t.ID), x.dn.get(t.ID)}
	case fault.TargetHost:
		return [2]int32{x.snd.get(t.ID), x.rcv.get(t.ID)}
	}
	return [2]int32{-1, -1}
}

// compactDue reports whether enough departures have accumulated, with
// nlive flows active, to re-derive the partition (amortized O(1) per
// event).
func (x *slotIndex) compactDue(nlive int) bool {
	return x.removals >= compactionFloor && x.removals >= nlive
}

// unlink starts a compaction: every slot reverts to an unstamped
// singleton, keeping its number. The owner then links its live flows
// again.
func (x *slotIndex) unlink() {
	x.uf.reset()
	clear(x.touch)
	x.removals = 0
}

// reset empties the index for a new run. Capacity is kept for the
// steady state but shed where one huge transient run inflated it:
// without the shed, a single scheme addressing many distinct node ids
// or carrying an enormous flow count would pin tens of megabytes in
// every long-lived engine forever.
func (x *slotIndex) reset() {
	if x.snd.oversized() || x.rcv.oversized() {
		x.snd, x.rcv = slotTable{}, slotTable{}
	}
	if x.up.oversized() || x.dn.oversized() {
		x.up, x.dn = slotTable{}, slotTable{}
	}
	for _, t := range [...]*slotTable{&x.snd, &x.rcv, &x.up, &x.dn} {
		t.clear()
	}
	if cap(x.touch) > maxPooledScratchLen {
		x.uf, x.touch = unionFind{}, nil
	}
	x.uf.resize(0)
	x.touch = x.touch[:0]
	x.removals = 0
}

// ComponentGrouper partitions a flow slice into the exact connected
// components of its constraint graph: flows sharing a sender NIC, a
// receiver NIC, or on a multi-switch fabric the edge uplink of the
// source switch or downlink of the destination switch of a crossing
// flow. Components come in first-flow order with slice order kept
// inside each. The zero value is ready to use; once warm, grouping
// allocates nothing. The grouping is exact for any node id.
type ComponentGrouper struct {
	idx slotIndex // slot interning for Group

	epoch  uint64
	stamp  []uint64 // per slot: epoch of its last claim
	owner  []int32  // per slot: member that claimed it this epoch
	uf     unionFind
	comp   []int32 // per member root: component index, -1 before numbering
	start  []int32 // per component: offset into sorted
	sorted []*Flow // members regrouped component by component
	comps  [][]*Flow
}

// Group partitions flows on topo and returns the number of components.
// Component slices alias the grouper's scratch (or flows itself, for a
// single component) and stay valid until the next Group or Reset.
func (g *ComponentGrouper) Group(flows []*Flow, topo topology.Spec) int {
	g.idx.topo = topo
	return g.group(&g.idx, flows)
}

// Component returns component c of the last Group call.
func (g *ComponentGrouper) Component(c int) []*Flow { return g.comps[c] }

// Reset empties the slot index, sheds scratch one huge grouping
// inflated and drops the flow pointers of the last grouping.
func (g *ComponentGrouper) Reset() {
	g.idx.reset()
	if len(g.stamp) > maxPooledScratchLen {
		g.stamp, g.owner = nil, nil
	}
	if cap(g.sorted) > maxPooledScratchLen {
		g.uf, g.comp, g.start, g.sorted, g.comps = unionFind{}, nil, nil, nil, nil
	}
	g.drop()
}

// drop clears the flow pointers the last grouping holds.
func (g *ComponentGrouper) drop() {
	clear(g.sorted)
	clear(g.comps)
	g.comps = g.comps[:0]
}

// group partitions flows, interning their slots in x. Connectivity
// comes from the flows alone: members claiming the same slot are
// united, so the grouping is exact even when x's own union-find
// over-approximates.
func (g *ComponentGrouper) group(x *slotIndex, flows []*Flow) int {
	k := len(flows)
	g.comps = g.comps[:0]
	if k <= 1 {
		if k == 1 { // a lone flow is its own component
			g.comps = append(g.comps, flows)
		}
		return k
	}
	g.epoch++
	g.uf.resize(k)
	var sl [4]int32
	for d, f := range flows {
		for _, s := range sl[:x.slots(f.Src, f.Dst, &sl)] {
			g.claim(int32(d), s)
		}
	}
	// Number components in first-flow order and count their members;
	// the running sums make start[c] the end of component c, and placing
	// members backwards turns it into the offset while keeping order.
	g.comp = growInt32s(g.comp, k)
	for i := range g.comp {
		g.comp[i] = -1
	}
	g.start = g.start[:0]
	for d := int32(0); d < int32(k); d++ {
		r := g.uf.find(d)
		if g.comp[r] < 0 {
			g.comp[r] = int32(len(g.start))
			g.start = append(g.start, 0)
		}
		g.start[g.comp[r]]++
	}
	n := len(g.start)
	if n == 1 {
		g.comps = append(g.comps, flows)
		return 1
	}
	for c := 1; c < n; c++ {
		g.start[c] += g.start[c-1]
	}
	g.sorted = growFlows(g.sorted, k)
	for d := k - 1; d >= 0; d-- {
		c := g.comp[g.uf.find(int32(d))]
		g.start[c]--
		g.sorted[g.start[c]] = flows[d]
	}
	for c := 0; c < n; c++ {
		end := int32(k)
		if c+1 < n {
			end = g.start[c+1]
		}
		g.comps = append(g.comps, g.sorted[g.start[c]:end])
	}
	return n
}

// claim records member d's use of slot s: the first member this epoch
// owns the slot, later ones unite with the owner.
func (g *ComponentGrouper) claim(d, s int32) {
	if int(s) >= len(g.stamp) {
		g.fit(int(s) + 1)
	}
	if g.stamp[s] != g.epoch {
		g.stamp[s] = g.epoch
		g.owner[s] = d
	} else {
		g.uf.union(d, g.owner[s])
	}
}

// fit extends the per-slot claim tables to n slots.
func (g *ComponentGrouper) fit(n int) {
	g.stamp = append(g.stamp, make([]uint64, n-len(g.stamp))...)
	g.owner = append(g.owner, make([]int32, n-len(g.owner))...)
}

// growInt32s returns buf resized to n, reallocating only when capacity
// lacks.
func growInt32s(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// growFlows is growInt32s for flow-pointer slices.
func growFlows(buf []*Flow, n int) []*Flow {
	if cap(buf) < n {
		return make([]*Flow, n)
	}
	return buf[:n]
}
