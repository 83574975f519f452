package netsim

import (
	"math"

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
	// and takes exactly the topology-free code path; a non-trivial
	// fabric adds shared per-edge-switch uplink/downlink capacities to
	// the final water-fill. Capacities derive from the single-flow
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
//  3. Final rates: max-min water-filling under FlowCap, the reduced
//     sender capacities and RxCap.
//
// It is the fill of every component IncrementalAllocator refills, and
// bit-identical to the map-based reference allocation on the same flow
// slice, for any node ids. A warm scratch makes it allocation-free.
func coupledDenseAllocate(cfg CoupledConfig, flows []*Flow, sc *fillScratch) {
	sc.begin()
	d := &sc.d

	// Phase 1a: intern endpoints and count per-sender/per-receiver active
	// flows. NIC capacities carry the fault overlay's per-host factor (1
	// on a healthy fabric, which multiplies exactly).
	for _, f := range flows {
		si, fresh := sc.snd.intern(int(f.Src))
		if fresh {
			d.sndCount = append(d.sndCount, 0)
			sc.effSend = append(sc.effSend, cfg.LineRate*cfg.Faults.HostFactor(int(f.Src)))
		}
		d.sndCount[si]++
		d.sidx = append(d.sidx, si)
		ri, fresh := sc.rcv.intern(int(f.Dst))
		if fresh {
			d.rcvCount = append(d.rcvCount, 0)
			sc.inflow = append(sc.inflow, 0)
			sc.rxCap = append(sc.rxCap, cfg.RxCap*cfg.Faults.HostFactor(int(f.Dst)))
		}
		d.rcvCount[ri]++
		d.ridx = append(d.ridx, ri)
	}

	// Phase 1b: base demand per sender, accumulated per receiver. The
	// sender line rate is the fault-scaled one captured in effSend (phase
	// 2 has not reduced it yet).
	for i := range flows {
		b := math.Min(cfg.FlowCap, sc.effSend[d.sidx[i]]/float64(d.sndCount[d.sidx[i]]))
		sc.inflow[d.ridx[i]] += b
	}

	// Phase 2: receiver oversubscription and sender coupling. rho is
	// inflow over the fault-scaled receive capacity; a zero-capacity
	// receiver with zero inflow yields rho = NaN, and NaN > threshold is
	// false, so degraded-to-zero NICs never engage coupling spuriously.
	// The coupling reduction scales off the sender's own degraded line
	// rate, recomputed here because effSend may already hold an earlier
	// flow's reduction.
	threshold := cfg.CouplingThreshold
	if threshold < 1 {
		threshold = 1
	}
	for i := range flows {
		rho := sc.inflow[d.ridx[i]] / sc.rxCap[d.ridx[i]]
		if rho > threshold && cfg.Coupling > 0 {
			sline := cfg.LineRate * cfg.Faults.HostFactor(int(flows[i].Src))
			reduced := sline * (1 - cfg.Coupling*(1-1/rho))
			if si := d.sidx[i]; reduced < sc.effSend[si] {
				sc.effSend[si] = reduced
			}
		}
	}

	// Phase 3: max-min under the adjusted capacities. The per-slot counts
	// from phase 1a are exactly the initial unfrozen counts. A trivial
	// topology runs the untouched crossbar routine, keeping its rates
	// bit-identical to the topology-free path.
	for _, v := range sc.effSend {
		d.sndLeft = append(d.sndLeft, v)
		d.sndOrig = append(d.sndOrig, v)
	}
	for _, v := range sc.rxCap {
		d.rcvLeft = append(d.rcvLeft, v)
		d.rcvOrig = append(d.rcvOrig, v)
	}
	if cfg.Topo.Trivial() {
		d.run(flows, cfg.FlowCap)
	} else {
		prepTopoLinks(sc, flows, cfg.Topo, cfg.Topo.UplinkCap(cfg.FlowCap), cfg.Faults)
		d.runTopo(flows, cfg.FlowCap)
	}
}
