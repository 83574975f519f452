// Package gige simulates the paper's Gigabit Ethernet + TCP substrate
// (IBM eServer 326 cluster, BCM5704 NICs, MPICH).
//
// Mechanism modelled (Section III-A of the paper): full-duplex GigE with
// IEEE 802.3x flow control. A congested receiver emits pause frames that
// stop the *whole sending NIC*, not individual flows, so one overloaded
// receiver slows every flow of every sender feeding it - including flows
// to completely idle receivers. This sender-level coupling is what makes
// communication (a) of scheme S5 in Figure 2 the most penalized (4.4)
// even though its own receiver is uncontested. On top of it, a single TCP
// stream is window-limited to a fraction beta of the line rate, which is
// why k outgoing flows cost k*beta (2 flows -> 1.5, 3 -> 2.25) instead of
// k.
package gige

import (
	"bwshare/internal/fault"
	"bwshare/internal/netsim"
	"bwshare/internal/topology"
)

// Config holds the GigE substrate parameters.
type Config struct {
	// LineRate is the NIC capacity in bytes/second. Gigabit Ethernet
	// carries 1 Gbit/s = 125e6 B/s on the wire.
	LineRate float64
	// Beta is the single-TCP-stream efficiency: a lone MPI stream
	// reaches Beta*LineRate. The paper calibrates beta = 0.75 from
	// simple outgoing conflicts (Section V-A).
	Beta float64
	// PauseCoupling enables 802.3x sender-level pause coupling. It is on
	// in the real substrate; turning it off degrades the simulator to
	// plain max-min fairness (the EXP-A2/netsim ablation).
	PauseCoupling bool
	// PauseThreshold is the receiver oversubscription factor above
	// which pause frames engage. Below it, TCP's per-flow congestion
	// control absorbs the overload without NIC-wide stalls. Calibrated
	// to 1.7: scheme S4 of Figure 2 (rho = 1.08) shows no sender
	// coupling while S5 (rho = 1.83) shows it strongly.
	PauseThreshold float64
	// Topo is the switch fabric connecting the hosts. The zero value is
	// the paper's single crossbar (bit-identical to the topology-free
	// substrate); a multi-switch fabric adds shared uplink capacity
	// constraints derived from the single-flow reference rate.
	Topo topology.Spec
	// Faults schedules link failures/degradations and host NIC
	// slowdowns applied mid-replay (see internal/fault). The zero value
	// is the static healthy fabric, bit-identical to the pre-fault
	// engine. The schedule must validate against Topo.
	Faults fault.Schedule
}

// DefaultConfig returns the calibrated configuration used in the
// experiments: the values that reproduce the Figure 2 GigE column shape.
func DefaultConfig() Config {
	return Config{LineRate: 125e6, Beta: 0.75, PauseCoupling: true, PauseThreshold: 1.7}
}

// Coupled translates the GigE parameters into the generic coupled
// allocation configuration of netsim.IncrementalAllocator. Exposed so
// the bwbench harness and the replay tests can build the allocator
// directly (e.g. on the sharded engine core).
func (cfg Config) Coupled() netsim.CoupledConfig {
	coupling := 0.0
	if cfg.PauseCoupling {
		coupling = 1.0
	}
	return netsim.CoupledConfig{
		LineRate:          cfg.LineRate,
		FlowCap:           cfg.Beta * cfg.LineRate,
		RxCap:             cfg.LineRate,
		Coupling:          coupling,
		CouplingThreshold: cfg.PauseThreshold,
		Topo:              cfg.Topo,
	}
}

// New builds the GigE substrate engine. Rates come from the incremental
// component-scoped allocator: each flow arrival or departure refills
// only the constraint-graph component it touches, so event cost under
// churn of independent jobs scales with the touched component rather
// than the whole active set (differential-tested in netsim against a
// map-based full-recompute oracle).
func New(cfg Config) *netsim.FluidEngine {
	if cfg.LineRate <= 0 || cfg.Beta <= 0 || cfg.Beta > 1 {
		panic("gige: invalid config")
	}
	ccfg := cfg.Coupled()
	var tl *fault.Timeline
	if !cfg.Faults.Empty() {
		if err := cfg.Faults.Validate(cfg.Topo); err != nil {
			panic("gige: " + err.Error())
		}
		tl = fault.Compile(cfg.Faults)
		ccfg.Faults = tl.State()
	}
	e := netsim.NewFluidEngine("gige", cfg.Beta*cfg.LineRate, &netsim.IncrementalAllocator{Cfg: ccfg})
	e.SetFaults(tl)
	return e
}
