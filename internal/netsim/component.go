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
// connected components of that constraint graph are the unit
// DirtyTracker (incremental.go) works on: its owners refill only the
// components an event touched and keep the rates of the others. It
// uses the two types of this file:
//
//   - slotIndex, the persistent constraint-slot index: one interning
//     table per namespace, a union-find over the slots, a per-slot
//     touch stamp and a per-component member list of the linked flows.
//     It only ever accretes unions, so after departures it
//     over-approximates connectivity; its owner compacts it once
//     enough removals accumulate (compactDue).
//   - componentGrouper, the exact transient grouping of one flow slice:
//     components in first-flow order, slice order inside each.
//     IncrementalAllocator regroups the dirty flows with it before its
//     per-component fill; the predictor scores them as one graph and
//     needs no grouping.

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

// slotIndex is the persistent constraint-slot index over the active
// flows of one engine run. Slots are interned per namespace on first
// sight: senders and receivers by node id, uplinks and downlinks by
// edge-switch id, and they keep their number until reset. touch and
// members are per slot and authoritative at union-find roots: the epoch
// of the last event that touched the component (merged by max on
// union) and the circular list of its linked flows (through Flow.next
// and Flow.prev, spliced on union).
// gathered is the owner's per-slot scratch stamp.
type slotIndex struct {
	topo     topology.Spec
	snd, rcv slotTable
	up, dn   slotTable
	uf       unionFind
	touch    []uint64
	members  []*Flow
	gathered []uint64
	removals int // departures since the last compaction, counted by the owner
}

// intern returns the slot for id in the namespace table t, issuing a
// fresh singleton slot on first sight.
func (x *slotIndex) intern(t *slotTable, id int) int32 {
	s, fresh := t.intern(id, int32(len(x.touch)))
	if fresh {
		x.uf.grow(int(s) + 1)
		x.touch = append(x.touch, 0)
		x.members = append(x.members, nil)
		x.gathered = append(x.gathered, 0)
	}
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
// touch stamp and the absorbed member list to the surviving root, and
// returns that root.
func (x *slotIndex) union(a, b int32) int32 {
	r, lost := x.uf.union(a, b)
	if r == lost {
		return r
	}
	if x.touch[lost] > x.touch[r] {
		x.touch[r] = x.touch[lost]
	}
	if m := x.members[lost]; m != nil {
		x.members[r] = spliceMembers(x.members[r], m)
		x.members[lost] = nil
	}
	return r
}

// Member lists are circular and doubly linked through Flow.next and
// Flow.prev, in no particular order: a union splices two lists and a
// new flow goes to the tail, both in O(1). DirtyTracker sorts what it
// gathers and may relist a component in that order.

// spliceMembers joins the member lists headed by a and b (b non-nil)
// and returns the head of the result.
func spliceMembers(a, b *Flow) *Flow {
	if a == nil {
		return b
	}
	at, bt := a.prev, b.prev
	at.next, b.prev = b, at
	bt.next, a.prev = a, bt
	return a
}

// insert adds f to the tail of the member list of root r.
func (x *slotIndex) insert(f *Flow, r int32) {
	f.next, f.prev = f, f
	x.members[r] = spliceMembers(x.members[r], f)
}

// relist relinks the member list of root r in the order of fs, which
// must hold exactly its members.
func (x *slotIndex) relist(r int32, fs []*Flow) {
	p := fs[len(fs)-1]
	for _, f := range fs {
		p.next, f.prev = f, p
		p = f
	}
	x.members[r] = fs[0]
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

// connect interns and unions f's constraint slots and returns the
// root.
func (x *slotIndex) connect(f *Flow) int32 {
	var sl [4]int32
	return x.join(sl[:x.slots(f.Src, f.Dst, &sl)])
}

// link connects f and adds it to its component's member list, returning
// the root.
func (x *slotIndex) link(f *Flow) int32 {
	r := x.connect(f)
	x.insert(f, r)
	return r
}

// relink re-derives the partition and member lists from the live flows
// after unlink.
func (x *slotIndex) relink(flows []*Flow) {
	for _, f := range flows {
		x.link(f)
	}
}

// remove takes f out of the member list of its component, whose root is
// r.
func (x *slotIndex) remove(f *Flow, r int32) {
	if f.next == f {
		x.members[r] = nil
	} else {
		f.prev.next, f.next.prev = f.next, f.prev
		if x.members[r] == f {
			x.members[r] = f.next
		}
	}
	f.next, f.prev = nil, nil
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

// unlink starts a compaction: every slot reverts to an unstamped,
// memberless singleton, keeping its number. The owner then links its
// live flows again.
func (x *slotIndex) unlink() {
	x.uf.reset()
	clear(x.touch)
	clear(x.members)
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
		t.reset()
	}
	clear(x.members) // drop the flow pointers before truncating
	if cap(x.touch) > maxPooledScratchLen {
		x.uf, x.touch, x.members, x.gathered = unionFind{}, nil, nil, nil
	}
	x.uf.resize(0)
	x.touch = x.touch[:0]
	x.members = x.members[:0]
	x.gathered = x.gathered[:0]
	x.removals = 0
}

// componentGrouper partitions a flow slice into the exact connected
// components of its constraint graph: flows sharing a sender NIC, a
// receiver NIC, or on a multi-switch fabric the edge uplink of the
// source switch or downlink of the destination switch of a crossing
// flow. Components come in first-flow order with slice order kept
// inside each. The zero value is ready to use; once warm, grouping
// allocates nothing. The grouping is exact for any node id.
type componentGrouper struct {
	epoch  uint64
	stamp  []uint64 // per slot: epoch of its last claim
	owner  []int32  // per slot: member that claimed it this epoch
	uf     unionFind
	comp   []int32 // per member root: component index, -1 before numbering
	start  []int32 // per component: offset into sorted
	sorted []*Flow // members regrouped component by component
	comps  [][]*Flow
}

// component returns component c of the last grouping. Component slices
// alias the grouper's scratch (or the grouped slice itself, for a
// single component) and stay valid until the next group or reset.
func (g *componentGrouper) component(c int) []*Flow { return g.comps[c] }

// reset sheds scratch one huge grouping inflated and drops the flow
// pointers of the last grouping.
func (g *componentGrouper) reset() {
	if len(g.stamp) > maxPooledScratchLen {
		g.stamp, g.owner = nil, nil
	}
	if cap(g.sorted) > maxPooledScratchLen {
		g.uf, g.comp, g.start, g.sorted, g.comps = unionFind{}, nil, nil, nil, nil
	}
	g.drop()
}

// drop clears the flow pointers the last grouping holds.
func (g *componentGrouper) drop() {
	clear(g.sorted)
	clear(g.comps)
	g.comps = g.comps[:0]
}

// group partitions flows, interning their slots in x. Connectivity
// comes from the flows alone: members claiming the same slot are
// united, so the grouping is exact even when x's own union-find
// over-approximates.
func (g *componentGrouper) group(x *slotIndex, flows []*Flow) int {
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
func (g *componentGrouper) claim(d, s int32) {
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
func (g *componentGrouper) fit(n int) {
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
