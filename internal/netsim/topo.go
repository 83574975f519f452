package netsim

import (
	"slices"

	"bwshare/internal/fault"
	"bwshare/internal/topology"
)

// Topology-aware allocation: on a multi-switch fabric, every flow whose
// endpoints live on different edge switches additionally consumes shared
// capacity on its source switch's uplink (up direction) and its
// destination switch's downlink (down direction). These link slots join
// the NIC slots in the one progressive fill (denseFill.fill), so the
// rates are max-min fair under ceilings, NICs and fabric links together.
// On a crossbar, or for a flow that stays inside one edge switch, the
// link slots are -1 and add nothing to the fill, which keeps those rates
// bit-identical to the topology-free ones (topo_test.go checks it).
//
// A link's slot is its switch id: switch sw's uplink is slot sw and its
// downlink slot Switches+sw (upSlot, dnSlot), in the tracker's slot
// index and in TopoFiller's table alike. So no link is interned, and a
// link's switch reads back from its slot (less Switches for a
// downlink). Each fill opens only the links its flows load, at the
// healthy capacity times the switch's fault factor.

// upSlot and dnSlot are the slots of switch sw's uplink and downlink on
// topo.
func upSlot(sw int) int32                     { return int32(sw) }
func dnSlot(topo topology.Spec, sw int) int32 { return int32(topo.Switches + sw) }

// TopoFiller imposes a fabric's uplink capacities on flow rates computed
// by a crossbar-level allocator (a penalty model): the incoming
// Flow.Rate values become per-flow caps and the rates are re-derived by
// the one progressive fill (denseFill.fill) under those caps plus the
// shared uplinks, with no NIC slot. Intra-switch flows keep their rate
// exactly. The zero value is ready to use; its link table is indexed by
// switch id and reused, so steady-state Apply calls allocate nothing.
// A TopoFiller is not safe for concurrent use.
type TopoFiller struct {
	// Faults, when non-nil, scales each uplink's capacity by the
	// overlay's per-switch factor (both directions). Host factors are the
	// crossbar-level allocator's concern; the filler only owns links.
	Faults *fault.State

	scr fillScratch
}

// Apply rewrites the rates of flows in place. hostRate is the access
// rate a single host can drive (the uplink capacity derives from it via
// topo.UplinkCap). A trivial topology leaves the rates untouched.
func (tf *TopoFiller) Apply(flows []*Flow, topo topology.Spec, hostRate float64) {
	if topo.Trivial() || len(flows) == 0 {
		return
	}
	sc := &tf.scr
	sc.begin()
	d := &sc.d
	// The table keeps whatever earlier fills left in slots these flows
	// do not load; the fill reads only the loaded ones, whose counts are
	// zeroed here before any is counted.
	d.links = slices.Grow(d.links, 2*topo.Switches)[:2*topo.Switches]
	for i, f := range flows {
		e := fillFlow{cap: f.Rate, flow: int32(i), snd: -1, rcv: -1, up: -1, dn: -1}
		if ss, ds := topo.SwitchOf(f.Src), topo.SwitchOf(f.Dst); ss != ds {
			e.up, e.dn = upSlot(ss), dnSlot(topo, ds)
			d.links[e.up].count, d.links[e.dn].count = 0, 0
		}
		d.flows = append(d.flows, e)
	}
	linkCap := topo.UplinkCap(hostRate)
	for _, e := range d.flows {
		if e.up >= 0 {
			d.links.load(e.up, linkCap*tf.Faults.LinkFactor(int(e.up)))
			d.links.load(e.dn, linkCap*tf.Faults.LinkFactor(int(e.dn)-topo.Switches))
		}
	}
	d.fill(flows)
}
