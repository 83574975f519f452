package netsim

import (
	"math"
	"slices"
)

// Dense scratch state for the allocation core. Every constraint lives
// in a flat slice indexed by a slot number instead of a map. In the
// tracker's slotIndex a fabric link's slot is fixed by its switch id
// and a NIC's is interned by node id in a slotTable, once per run; the
// coupled fill indexes its table by a walk's local numbering of those
// slots, TopoFiller by the link slots themselves. All buffers are
// reused, so a steady-state allocation does zero heap allocation.

// maxDenseNode bounds the ids the slot tables index directly. Schemes
// use cluster node indices (tens to thousands); an id outside
// [0, maxDenseNode) is interned through a small overflow map instead of
// a huge table, on the same slow path that grows the table.
const maxDenseNode = 1 << 22

// slotTable maps the node ids of one NIC namespace (senders or
// receivers) to slots. An entry counts only when stamped with the
// current epoch, so reset unassigns every id in O(1); slotIndex starts
// one epoch per run.
type slotTable struct {
	dense []slotEntry
	epoch uint64
	big   map[int]int32 // this epoch's ids outside [0, maxDenseNode)
}

type slotEntry struct {
	stamp uint64
	slot  int32
}

// reset unassigns every id, keeping capacity.
func (t *slotTable) reset() {
	t.epoch++
	if len(t.big) > 0 {
		clear(t.big)
	}
}

// get returns the slot of id, or -1 if it has none this epoch.
func (t *slotTable) get(id int) int32 {
	if uint(id) < uint(len(t.dense)) {
		if e := t.dense[id]; e.stamp == t.epoch {
			return e.slot
		}
		return -1
	}
	if s, ok := t.big[id]; ok {
		return s
	}
	return -1
}

// intern returns the slot of id, assigning it next on first sight this
// epoch (fresh). Only an id outside [0, maxDenseNode) consults the
// overflow map.
func (t *slotTable) intern(id int, next int32) (slot int32, fresh bool) {
	if uint(id) < uint(len(t.dense)) {
		if e := t.dense[id]; e.stamp == t.epoch {
			return e.slot, false
		}
	} else if id < 0 || id >= maxDenseNode {
		if s, ok := t.big[id]; ok {
			return s, false
		}
	}
	return t.assign(id, next), true
}

// assign gives id, which has no slot this epoch, the slot next: an id
// past the table but in the dense range grows it, an id outside that
// range goes to the overflow map.
func (t *slotTable) assign(id int, next int32) int32 {
	if id < 0 || id >= maxDenseNode {
		if t.big == nil {
			t.big = make(map[int]int32)
		}
		t.big[id] = next
		return next
	}
	if id >= len(t.dense) {
		if t.epoch == 0 {
			t.epoch = 1 // a zero (never written) entry must not read as current
		}
		t.dense = slices.Grow(t.dense, id+1-len(t.dense))[:id+1]
	}
	t.dense[id] = slotEntry{stamp: t.epoch, slot: next}
	return next
}

// oversized reports whether one huge run inflated the table past the
// retention cap.
func (t *slotTable) oversized() bool {
	return len(t.dense) > maxPooledScratchLen || len(t.big) > maxPooledScratchLen
}

// denseFill is the state of one progressive fill. Each flow has its own
// rate ceiling and up to four constraint slots: sender and receiver NIC,
// and for a flow crossing edge switches the source uplink and
// destination downlink. A slot is -1 where the flow loads no such
// constraint: a crossbar flow has no link slots, and TopoFiller's flows
// have no NIC slots. Slots of every kind index the one links table.
type denseFill struct {
	flows []fillFlow // per flow, in flow order
	links links      // per slot
}

// fillFlow is one flow's entry in the fill.
type fillFlow struct {
	rate, cap        float64 // rate so far, rate ceiling
	flow             int32   // index of the flow in the filled slice
	snd, rcv, up, dn int32   // constraint slots, -1 for none
}

// links is the per-slot state of the fill. A slot is tested against the
// length before use, and -1 fails that test, so a missing constraint
// costs no more than the bounds check indexing needs anyway.
type links []link

type link struct {
	left, orig float64 // remaining capacity, capacity at the start of the fill
	count      int32   // unfrozen flows on the slot
}

// load counts one more flow on slot s, opening the slot at capacity c
// when that flow is its first. fill takes orig from left.
func (l links) load(s int32, c float64) {
	if l[s].count == 0 {
		l[s].left = c
	}
	l[s].count++
}

// setOrig records slot s's capacity at the start of the fill.
func (l links) setOrig(s int32) {
	if i := int(s); uint(i) < uint(len(l)) {
		l[i].orig = l[i].left
	}
}

// headroom lowers inc to slot s's equal share of what is left.
func (l links) headroom(s int32, inc float64) float64 {
	if i := int(s); uint(i) < uint(len(l)) && l[i].count > 0 {
		if h := l[i].left / float64(l[i].count); h < inc {
			return h
		}
	}
	return inc
}

// take charges inc to slot s.
func (l links) take(s int32, inc float64) {
	if i := int(s); uint(i) < uint(len(l)) {
		l[i].left -= inc
	}
}

// saturated reports whether slot s is used up (relative tolerance:
// capacities are O(1e8) bytes/second, so absolute epsilons misclassify
// rounding residue as headroom).
func (l links) saturated(s int32) bool {
	i := int(s)
	return uint(i) < uint(len(l)) && l[i].left <= relEps*l[i].orig
}

// release takes a frozen flow off slot s.
func (l links) release(s int32) {
	if i := int(s); uint(i) < uint(len(l)) {
		l[i].count--
	}
}

// reset empties the per-epoch state, keeping capacity.
func (d *denseFill) reset() {
	d.flows, d.links = d.flows[:0], d.links[:0]
}

// relEps is the fill's relative saturation tolerance.
const relEps = 1e-9

// fill is the one progressive-filling loop of the package: grow every
// unfrozen flow at the same speed until a ceiling or constraint
// saturates, freeze the flows bound by it, repeat — at most len(flows)
// rounds. Each constraint's remaining capacity is charged once per
// unfrozen flow per round, in flow order, and a -1 slot adds no term,
// charge or freeze test, so the rates are bit-identical to the map-based
// references (referenceWaterFill, referenceWaterFillTopo,
// referenceCapsFill). The slot counts must hold the number of flows on
// each slot on entry; they are consumed as flows freeze. A frozen flow
// gets its final Rate and leaves the working prefix of d.flows, which
// keeps the unfrozen ones in order. Only the slots the flows load are
// read or written, so the table may hold slots no flow loads.
func (d *denseFill) fill(flows []*Flow) {
	l, act := d.links, d.flows
	for _, e := range act {
		l.setOrig(e.snd)
		l.setOrig(e.rcv)
		l.setOrig(e.up)
		l.setOrig(e.dn)
	}
	for len(act) > 0 {
		// Smallest headroom over all constraints touching unfrozen flows.
		inc := math.Inf(1)
		for i := range act {
			e := &act[i]
			if h := e.cap - e.rate; h < inc {
				inc = h
			}
			inc = l.headroom(e.snd, inc)
			inc = l.headroom(e.rcv, inc)
			inc = l.headroom(e.up, inc)
			inc = l.headroom(e.dn, inc)
		}
		if math.IsInf(inc, 1) {
			break
		}
		if inc < 0 {
			inc = 0
		}
		for i := range act {
			e := &act[i]
			e.rate += inc
			l.take(e.snd, inc)
			l.take(e.rcv, inc)
			l.take(e.up, inc)
			l.take(e.dn, inc)
		}
		// Freeze the flows at a saturated ceiling or constraint.
		n := 0
		for _, e := range act {
			if e.cap-e.rate <= relEps*e.cap ||
				l.saturated(e.snd) || l.saturated(e.rcv) ||
				l.saturated(e.up) || l.saturated(e.dn) {
				l.release(e.snd)
				l.release(e.rcv)
				l.release(e.up)
				l.release(e.dn)
				flows[e.flow].Rate = e.rate
			} else {
				act[n] = e
				n++
			}
		}
		if n == len(act) {
			// inc was positive but nothing saturated exactly; numeric
			// safety valve to guarantee termination.
			break
		}
		act = act[:n]
	}
	for _, e := range act {
		flows[e.flow].Rate = e.rate
	}
}

// fillScratch bundles everything one allocation epoch needs: the fill
// state and the coupled fill's per-receiver inflow. IncrementalAllocator
// and TopoFiller each own one; neither interns anything per fill.
type fillScratch struct {
	d      denseFill
	inflow []float64 // per slot: base inflow of a receiver slot
}

func (s *fillScratch) begin() {
	s.d.reset()
	s.inflow = s.inflow[:0]
}

// maxPooledScratchLen bounds the scratch a long-lived owner retains
// between runs: a scratch whose per-flow arrays or slot tables grew
// beyond this (one huge transient scheme, or a scheme addressing many
// distinct node ids) is dropped at the next reset instead of pinning its
// capacity forever. Steady workloads stay far below the cap, so they
// keep the zero-allocation fast path.
const maxPooledScratchLen = 1 << 14

// oversized reports whether the scratch has outgrown the pooling cap.
func (s *fillScratch) oversized() bool {
	return cap(s.d.flows) > maxPooledScratchLen ||
		cap(s.d.links) > maxPooledScratchLen ||
		cap(s.inflow) > maxPooledScratchLen
}
