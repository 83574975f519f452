package netsim

import (
	"math"
	"slices"

	"bwshare/internal/fault"
	"bwshare/internal/topology"
)

// CoupledConfig parameterizes the coupled allocation (coupledDenseAllocate).
type CoupledConfig struct {
	// LineRate is the NIC transmit capacity in bytes/second.
	LineRate float64
	// FlowCap is the maximum steady rate of a single flow (bytes/second).
	// For TCP this models the window/RTT ceiling (FlowCap = beta x
	// LineRate with the paper's beta); for InfiniBand the verbs engine
	// ceiling.
	FlowCap float64
	// RxCap is the receive-side capacity in bytes/second. Full-duplex
	// NICs receive independently of transmit; measured InfiniBand
	// penalties require RxCap slightly above LineRate.
	RxCap float64
	// Coupling is the sender-coupling strength kappa in [0, 1]. When a
	// receiver is oversubscribed by a factor rho > CouplingThreshold,
	// every sender feeding it loses a fraction kappa*(1 - 1/rho) of its
	// NIC capacity, slowing all of that sender's flows - including flows
	// to idle receivers. kappa = 1 models 802.3x pause frames (pausing
	// stops the whole link); intermediate values model InfiniBand credit
	// stalls. kappa = 0 disables coupling (pure max-min ablation).
	Coupling float64
	// CouplingThreshold is the oversubscription level above which the
	// sender coupling engages. Moderate overload is absorbed by
	// per-flow backpressure (TCP congestion control / per-QP credits)
	// without NIC-wide stalls; only heavy overload triggers pause
	// frames. Values <= 1 make coupling engage on any overload.
	CouplingThreshold float64
	// Topo describes the switch fabric connecting the hosts. The zero
	// value (single crossbar) imposes no constraints beyond the NICs
	// and loads no link slot in the fill; a non-trivial fabric adds
	// shared per-edge-switch uplink/downlink capacities to the final
	// water-fill. Capacities derive from the single-flow
	// reference rate (FlowCap) via Topo.UplinkCap — the same
	// normalization the paper uses for penalties — so substrate
	// measurements and model predictions place the fabric on one scale.
	// Sender coupling itself stays a NIC-level mechanism.
	Topo topology.Spec
	// Faults is the mutable degraded-capacity overlay, or nil for a
	// healthy fabric. Host factors scale the sender line rate and the
	// receive capacity; link factors scale the uplink/downlink
	// capacities of the fabric. The State is owned by a fault.Timeline
	// and mutated in place as the replay crosses fault change points, so
	// the allocator observes every step through this one pointer. A nil
	// State reads as factor 1 everywhere, and multiplying by exactly 1.0
	// is IEEE-exact, so the healthy path stays bit-identical to the
	// pre-fault code.
	Faults *fault.State
}

// coupledDenseAllocate runs the two-phase rate allocation shared by the
// GigE and InfiniBand substrates over flows, using sc for all per-epoch
// state:
//
//  1. Base demand: each sender divides its line rate equally among its
//     active flows, each capped at FlowCap.
//  2. Receiver overload: every receiver computes its oversubscription
//     rho = base inflow / RxCap. Each sender's effective capacity is
//     reduced by Coupling*(1-1/rho_max) for the worst receiver it feeds
//     (pause frames / credit stalls throttle the whole NIC).
//  3. Final rates: max-min water-filling (denseFill.fill) under
//     FlowCap, the reduced sender capacities, RxCap and the fabric's
//     links.
//
// flows are whole components of the last Dirty walk over x, whose slots
// that walk numbered [base, end); the fill's slot of a flow's slot k is
// its local index minus base, so the fill interns nothing. cfg.Topo
// must be the fabric x was armed on. It is the fill of every component
// IncrementalAllocator refills, and bit-identical to the map-based
// reference allocation on the same flow slice, for any node ids and any
// numbering. A warm scratch makes it allocation-free.
func coupledDenseAllocate(cfg CoupledConfig, flows []*Flow, x *slotIndex, base, end int32, sc *fillScratch) {
	sc.begin()
	d := &sc.d
	d.links = slices.Grow(d.links, int(end-base))[:end-base]
	clear(d.links)
	local := func(s int32) int32 { return x.local[s] - base }

	// Phase 1a: count per-slot active flows and open each slot at its
	// capacity on first sight. NIC capacities carry the fault overlay's
	// per-host factor (1 on a healthy fabric, which multiplies exactly);
	// the fabric's links, which only phase 3 reads, carry its per-switch
	// factor.
	linkCap := cfg.Topo.UplinkCap(cfg.FlowCap)
	for i, f := range flows {
		e := fillFlow{cap: cfg.FlowCap, flow: int32(i), snd: local(f.slot[0]), rcv: local(f.slot[1]), up: -1, dn: -1}
		d.links.load(e.snd, cfg.LineRate*cfg.Faults.HostFactor(int(f.Src)))
		d.links.load(e.rcv, cfg.RxCap*cfg.Faults.HostFactor(int(f.Dst)))
		if f.slot[2] >= 0 { // a link's slot is its switch id (see topo.go)
			e.up, e.dn = local(f.slot[2]), local(f.slot[3])
			d.links.load(e.up, linkCap*cfg.Faults.LinkFactor(int(f.slot[2])))
			d.links.load(e.dn, linkCap*cfg.Faults.LinkFactor(int(f.slot[3])-cfg.Topo.Switches))
		}
		d.flows = append(d.flows, e)
	}

	// Phase 1b: base demand per sender, accumulated per receiver. The
	// sender line rate is the fault-scaled one (phase 2 has not reduced
	// it yet).
	sc.inflow = slices.Grow(sc.inflow[:0], len(d.links))[:len(d.links)]
	clear(sc.inflow)
	for _, s := range d.flows {
		snd := &d.links[s.snd]
		sc.inflow[s.rcv] += math.Min(cfg.FlowCap, snd.left/float64(snd.count))
	}

	// Phase 2: receiver oversubscription and sender coupling. rho is
	// inflow over the fault-scaled receive capacity; a zero-capacity
	// receiver with zero inflow yields rho = NaN, and NaN > threshold is
	// false, so degraded-to-zero NICs never engage coupling spuriously.
	// The coupling reduction scales off the sender's own degraded line
	// rate, recomputed here because the sender's capacity may already
	// hold an earlier flow's reduction.
	threshold := cfg.CouplingThreshold
	if threshold < 1 {
		threshold = 1
	}
	for i, s := range d.flows {
		rho := sc.inflow[s.rcv] / d.links[s.rcv].left
		if rho > threshold && cfg.Coupling > 0 {
			sline := cfg.LineRate * cfg.Faults.HostFactor(int(flows[i].Src))
			reduced := sline * (1 - float64(cfg.Coupling*(1-1/rho)))
			if snd := &d.links[s.snd]; reduced < snd.left {
				snd.left = reduced
			}
		}
	}

	// Phase 3: max-min under FlowCap, the reduced sender capacities,
	// RxCap and the fabric links. The slot counts from phase 1a are
	// exactly the initial unfrozen counts.
	d.fill(flows)
}
