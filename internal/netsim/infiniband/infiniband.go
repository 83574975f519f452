// Package infiniband simulates the paper's InfiniBand Infinihost III
// substrate (BULL Novascale cluster, MPIBULL2/MVAPICH).
//
// Mechanism modelled (Section III-C): credit-based flow control. Packets
// are transmitted only when the destination has advertised buffer space,
// which yields close-to-max-min sharing; when a receiver's buffers are
// oversubscribed, credit starvation stalls the sending HCA's work queue
// and partially throttles its other flows (a milder form of the GigE
// pause coupling). The receive path of the HCA is slightly faster than a
// single send path, which the paper's measurements show indirectly
// (penalty of (d) in scheme S4 is only 1.14).
package infiniband

import (
	"bwshare/internal/fault"
	"bwshare/internal/netsim"
	"bwshare/internal/topology"
)

// Config holds the InfiniBand substrate parameters.
type Config struct {
	// LineRate is the HCA send capacity in bytes/second. The Infinihost
	// III in the paper's cluster sustains about 1 GB/s of MPI payload.
	LineRate float64
	// BetaIB is the single-stream efficiency: a lone stream reaches
	// BetaIB*LineRate. Calibrated from the 2-flow penalty 1.725 of
	// Figure 2: 2*beta = 1.725 -> beta = 0.8625.
	BetaIB float64
	// RxFactor scales the receive capacity relative to LineRate
	// (full-duplex receive path headroom). Calibrated to 1.13 from the
	// scheme S4/S5 incoming penalties.
	RxFactor float64
	// Coupling is the credit-stall sender coupling strength in [0,1].
	// Calibrated to 0.65 from the jump of (a,b,c) penalties between
	// schemes S4 (2.61) and S5 (3.66).
	Coupling float64
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

// DefaultConfig returns the calibrated configuration reproducing the
// Figure 2 InfiniBand column shape.
func DefaultConfig() Config {
	return Config{LineRate: 1000e6, BetaIB: 0.8625, RxFactor: 1.13, Coupling: 0.65}
}

// Coupled translates the InfiniBand parameters into the generic coupled
// allocation configuration of netsim.IncrementalAllocator. Exposed so
// the bwbench harness and the replay tests can build the allocator
// directly (e.g. on the sharded engine core).
func (cfg Config) Coupled() netsim.CoupledConfig {
	return netsim.CoupledConfig{
		LineRate: cfg.LineRate,
		FlowCap:  cfg.BetaIB * cfg.LineRate,
		RxCap:    cfg.RxFactor * cfg.LineRate,
		Coupling: cfg.Coupling,
		Topo:     cfg.Topo,
	}
}

// New builds the InfiniBand substrate engine. Like the GigE substrate
// it allocates with the incremental component-scoped allocator, so
// churny multi-job workloads pay per-component rather than
// whole-active-set allocation cost on every flow event.
func New(cfg Config) *netsim.FluidEngine {
	if cfg.LineRate <= 0 || cfg.BetaIB <= 0 || cfg.BetaIB > 1 || cfg.RxFactor <= 0 {
		panic("infiniband: invalid config")
	}
	ccfg := cfg.Coupled()
	var tl *fault.Timeline
	if !cfg.Faults.Empty() {
		if err := cfg.Faults.Validate(cfg.Topo); err != nil {
			panic("infiniband: " + err.Error())
		}
		tl = fault.Compile(cfg.Faults)
		ccfg.Faults = tl.State()
	}
	e := netsim.NewFluidEngine("infiniband", cfg.BetaIB*cfg.LineRate, &netsim.IncrementalAllocator{Cfg: ccfg})
	e.SetFaults(tl)
	return e
}
