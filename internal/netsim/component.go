package netsim

import (
	"slices"

	"bwshare/internal/fault"
	"bwshare/internal/topology"
)

// Constraint components.
//
// Two flows interact only if they share a sender NIC, a receiver NIC,
// or — on a multi-switch fabric, for flows crossing edge switches — the
// source switch's uplink or the destination switch's downlink. The
// connected components of that constraint graph are the unit
// DirtyTracker (incremental.go) works on: its owners refill only the
// components an event touched and keep the rates of the others.
//
// slotIndex holds that graph exactly: per slot, the list of live flows
// that load it. Link slots are fixed by switch id (see topo.go), NIC
// slots are interned by node id after them. Each flow records its
// slots and its position in each slot's list (Flow.slot, Flow.pos), so
// a departure is a swap-remove per slot, and a walk from any slot over
// the lists yields exactly its current component.
//
// A walk also numbers the slots it reaches, densely and in the order
// it reaches them (slotIndex.local), so the owners of a DirtyTracker
// fill in that numbering and never intern or renumber an endpoint per
// event: IncrementalAllocator indexes its fill's slot table by it, and
// the predictor builds its conflict graph on it (graph.RebuildNumbered).

// slotIndex is the persistent constraint-slot index over the active
// flows of one engine run. Armed on a fabric (topo, set before reset),
// it reserves slots [0, 2·Switches) for the links: switch sw's uplink
// is slot sw, its downlink Switches+sw. Senders and receivers are
// interned by node id on first sight, after the links, and keep their
// slot until reset. Slot k of a flow is always in namespace k (sender,
// receiver, uplink, downlink).
type slotIndex struct {
	topo     topology.Spec
	snd, rcv slotTable
	on       [][]*Flow // per slot: the live flows that load it
	pass     []uint64  // per slot: the Dirty walk that last reached it
	local    []int32   // per slot: its index in the numbering of that walk
}

// intern returns the slot for id in the namespace table t, opening an
// empty slot on first sight. A reopened slot reuses the list capacity
// an earlier run left.
func (x *slotIndex) intern(t *slotTable, id int) int32 {
	s, fresh := t.intern(id, int32(len(x.on)))
	if fresh {
		if len(x.on) < cap(x.on) {
			x.on = x.on[:s+1]
		} else {
			x.on = append(x.on, nil)
		}
		x.pass = append(x.pass, 0)
		x.local = append(x.local, 0)
	}
	return s
}

// add sets f's constraint slots — sender, receiver, and for a flow
// crossing edge switches the source uplink and destination downlink —
// and appends f to their lists.
func (x *slotIndex) add(f *Flow) {
	f.slot = [4]int32{x.intern(&x.snd, int(f.Src)), x.intern(&x.rcv, int(f.Dst)), -1, -1}
	if !x.topo.Trivial() {
		if ss, ds := x.topo.SwitchOf(f.Src), x.topo.SwitchOf(f.Dst); ss != ds {
			f.slot[2], f.slot[3] = upSlot(ss), dnSlot(x.topo, ds)
		}
	}
	for k, s := range f.slot {
		f.pos[k] = -1
		if s >= 0 {
			f.pos[k] = int32(len(x.on[s]))
			x.on[s] = append(x.on[s], f)
		}
	}
}

// remove swap-removes f from its slots' lists. The flow moved into f's
// place loads the same slot in the same namespace k, so its position
// there is pos[k].
func (x *slotIndex) remove(f *Flow) {
	for k, s := range f.slot {
		if s < 0 {
			continue
		}
		l := x.on[s]
		last := l[len(l)-1]
		l[f.pos[k]] = last
		last.pos[k] = f.pos[k]
		l[len(l)-1] = nil
		x.on[s] = l[:len(l)-1]
	}
}

// walk appends the flows of slot s's component to dst, stamping every
// slot it reaches with pass and numbering it: the slots get local
// indices next, next+1, ... in the order the walk reaches them, and
// walk returns the next free index. s must load a flow and carry an
// older stamp. A sender slot adds its flows and reaches their other
// slots, any other slot reaches its flows' sender slots, so each flow
// is added once, from its sender slot, and every slot of an added flow
// is numbered. stack is scratch, returned for reuse.
func (x *slotIndex) walk(s int32, pass uint64, next int32, dst []*Flow, stack []int32) ([]*Flow, []int32, int32) {
	x.pass[s], x.local[s] = pass, next
	next++
	stack = append(stack[:0], s)
	for len(stack) > 0 {
		s = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		on := x.on[s]
		if on[0].slot[0] == s { // a sender slot
			for _, f := range on {
				dst = append(dst, f)
				for _, o := range f.slot[1:] {
					if o >= 0 && x.pass[o] != pass {
						x.pass[o], x.local[o] = pass, next
						next++
						stack = append(stack, o)
					}
				}
			}
		} else {
			for _, f := range on {
				if o := f.slot[0]; x.pass[o] != pass {
					x.pass[o], x.local[o] = pass, next
					next++
					stack = append(stack, o)
				}
			}
		}
	}
	return dst, stack, next
}

// faultSlots returns the slots of the resources a fault target degrades
// — a link target's uplink and downlink, a host target's sender and
// receiver NIC — or -1 where there is none: a host no active flow has
// interned, a switch outside the armed fabric.
func (x *slotIndex) faultSlots(t fault.Target) [2]int32 {
	switch t.Kind {
	case fault.TargetLink:
		if !x.topo.Trivial() && uint(t.ID) < uint(x.topo.Switches) {
			return [2]int32{upSlot(t.ID), dnSlot(x.topo, t.ID)}
		}
	case fault.TargetHost:
		return [2]int32{x.snd.get(t.ID), x.rcv.get(t.ID)}
	}
	return [2]int32{-1, -1}
}

// reset empties the index for a new run on x.topo, dropping every flow
// pointer, and reserves the fabric's link slots. Capacity is kept for
// the steady state but shed where one huge transient run inflated it:
// without the shed, a single scheme addressing many distinct node ids
// or carrying an enormous flow count would pin tens of megabytes in
// every long-lived engine forever.
func (x *slotIndex) reset() {
	if x.snd.oversized() || x.rcv.oversized() {
		x.snd, x.rcv = slotTable{}, slotTable{}
	}
	x.snd.reset()
	x.rcv.reset()
	for i, l := range x.on {
		clear(l)
		if cap(l) > maxPooledScratchLen {
			x.on[i] = nil
		} else {
			x.on[i] = l[:0]
		}
	}
	if cap(x.on) > maxPooledScratchLen {
		x.on, x.pass, x.local = nil, nil, nil
	}
	x.on, x.pass, x.local = x.on[:0], x.pass[:0], x.local[:0]
	if !x.topo.Trivial() {
		n := 2 * x.topo.Switches
		x.on = slices.Grow(x.on, n)[:n] // lists past len are empty: a reset emptied them before shortening
		x.pass = slices.Grow(x.pass, n)[:n]
		x.local = slices.Grow(x.local, n)[:n]
		clear(x.pass)
		clear(x.local)
	}
}
