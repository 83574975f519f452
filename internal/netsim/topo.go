package netsim

import (
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
// The coupled fill (coupledDenseAllocate) takes its link slots, like
// its NIC slots, from the tracker's component walk. TopoFiller fills
// every flow it is given, outside any component walk, so it interns
// edge-switch ids to link slots itself, once per fill. The per-slot state lives in the reusable fillScratch,
// and a steady-state allocation does zero heap allocation.

// linkSlots interns the edge switches of the inter-switch flows and sets
// their uplink and downlink slots; the flows' fill entries must be in
// place, with link slots -1. A crossbar, or a flow that stays inside
// one switch, keeps them so. linkCap is the per-direction capacity of
// one healthy uplink; fs (nil for a healthy fabric) scales each switch's
// uplink by its fault factor, in both directions.
func (sc *fillScratch) linkSlots(flows []*Flow, topo topology.Spec, linkCap float64, fs *fault.State) {
	if topo.Trivial() {
		return
	}
	d := &sc.d
	for i, f := range flows {
		if ss, ds := topo.SwitchOf(f.Src), topo.SwitchOf(f.Dst); ss != ds {
			e := &d.flows[i]
			e.up = d.linkSlot(&sc.up, ss, linkCap, fs)
			e.dn = d.linkSlot(&sc.dn, ds, linkCap, fs)
		}
	}
}

// linkSlot is slot for switch sw's link in table t, opening it at
// linkCap scaled by the switch's fault factor.
func (d *denseFill) linkSlot(t *slotTable, sw int, linkCap float64, fs *fault.State) int32 {
	s, fresh := d.slot(t, sw)
	if fresh {
		d.links[s].left = linkCap * fs.LinkFactor(sw)
	}
	return s
}

// TopoFiller imposes a fabric's uplink capacities on flow rates computed
// by a crossbar-level allocator (a penalty model): the incoming
// Flow.Rate values become per-flow caps and the rates are re-derived by
// the one progressive fill (denseFill.fill) under those caps plus the
// shared uplinks, with no NIC slot. Intra-switch flows keep their rate
// exactly. The zero value is ready to
// use; scratch is reused, so steady-state Apply calls allocate nothing.
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
	for i, f := range flows {
		d.flows = append(d.flows, fillFlow{cap: f.Rate, flow: int32(i), snd: -1, rcv: -1, up: -1, dn: -1})
	}
	sc.linkSlots(flows, topo, topo.UplinkCap(hostRate), tf.Faults)
	d.fill(flows)
}
