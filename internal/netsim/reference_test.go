package netsim

import (
	"math"

	"bwshare/internal/graph"
)

// This file retains the original map-based allocation core verbatim, as
// the test oracle of the dense-indexed fill in maxmin.go and dense.go:
// equiv_test.go holds the two bitwise equal, so every change to the hot
// path has a bit-exact oracle. Do not "optimize" this file.

// capOf resolves a per-node capacity with a default for missing entries.
func capOf(m map[graph.NodeID]float64, n graph.NodeID, def float64) float64 {
	if c, ok := m[n]; ok {
		return c
	}
	return def
}

// referenceWaterFill is the retained map-based progressive-filling
// implementation. It is the semantic oracle: the dense fill (denseFill.run,
// driven by waterFill in the tests) must produce bit-identical rates.
func referenceWaterFill(flows []*Flow, flowCap float64, senderCap, recvCap map[graph.NodeID]float64, defSend, defRecv float64) {
	const relEps = 1e-9
	type side struct {
		left  float64 // remaining capacity
		orig  float64 // original capacity (for relative saturation tests)
		count int     // unfrozen flows using it
	}
	snd := make(map[graph.NodeID]*side)
	rcv := make(map[graph.NodeID]*side)
	for _, f := range flows {
		f.Rate = 0
		if snd[f.Src] == nil {
			c := capOf(senderCap, f.Src, defSend)
			snd[f.Src] = &side{left: c, orig: c}
		}
		if rcv[f.Dst] == nil {
			c := capOf(recvCap, f.Dst, defRecv)
			rcv[f.Dst] = &side{left: c, orig: c}
		}
		snd[f.Src].count++
		rcv[f.Dst].count++
	}
	frozen := make([]bool, len(flows))
	remaining := len(flows)
	for remaining > 0 {
		// Smallest headroom over all constraints touching unfrozen flows.
		inc := math.Inf(1)
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			if h := flowCap - f.Rate; h < inc {
				inc = h
			}
			if s := snd[f.Src]; s.count > 0 {
				if h := s.left / float64(s.count); h < inc {
					inc = h
				}
			}
			if r := rcv[f.Dst]; r.count > 0 {
				if h := r.left / float64(r.count); h < inc {
					inc = h
				}
			}
		}
		if math.IsInf(inc, 1) {
			break
		}
		if inc < 0 {
			inc = 0
		}
		// Apply the increment.
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			f.Rate += inc
			snd[f.Src].left -= inc
			rcv[f.Dst].left -= inc
		}
		// Freeze flows at saturated constraints (relative tolerance:
		// capacities are O(1e8) bytes/second, so absolute epsilons
		// misclassify rounding residue as headroom).
		progressed := false
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			s, r := snd[f.Src], rcv[f.Dst]
			if flowCap-f.Rate <= relEps*flowCap ||
				s.left <= relEps*s.orig || r.left <= relEps*r.orig {
				frozen[i] = true
				s.count--
				r.count--
				remaining--
				progressed = true
			}
		}
		if !progressed {
			// inc was positive but nothing saturated exactly; numeric
			// safety valve to guarantee termination.
			break
		}
	}
}

// referenceCoupledAllocate is the retained map-based two-phase coupled
// allocation (see coupledDenseAllocate for the model description). Fault
// overlay semantics (cfg.Faults) mirror coupledDenseAllocate operation
// for operation: host factors scale the sender line rate (base demand,
// coupling reduction, water-fill capacity) and the receive capacity
// (oversubscription rho, water-fill capacity).
func referenceCoupledAllocate(cfg CoupledConfig, flows []*Flow) {
	// Phase 1: base demand per sender.
	nPerSender := make(map[graph.NodeID]int)
	for _, f := range flows {
		nPerSender[f.Src]++
	}
	base := func(f *Flow) float64 {
		return math.Min(cfg.FlowCap, cfg.LineRate*cfg.Faults.HostFactor(int(f.Src))/float64(nPerSender[f.Src]))
	}
	// Phase 2: receiver oversubscription and sender coupling.
	inflow := make(map[graph.NodeID]float64)
	for _, f := range flows {
		inflow[f.Dst] += base(f)
	}
	threshold := cfg.CouplingThreshold
	if threshold < 1 {
		threshold = 1
	}
	effSend := make(map[graph.NodeID]float64)
	for _, f := range flows {
		rho := inflow[f.Dst] / (cfg.RxCap * cfg.Faults.HostFactor(int(f.Dst)))
		sline := cfg.LineRate * cfg.Faults.HostFactor(int(f.Src))
		cur, ok := effSend[f.Src]
		if !ok {
			cur = sline
			effSend[f.Src] = cur
		}
		if rho > threshold && cfg.Coupling > 0 {
			reduced := sline * (1 - cfg.Coupling*(1-1/rho))
			if reduced < cur {
				effSend[f.Src] = reduced
			}
		}
	}
	// Phase 3: max-min under the adjusted capacities.
	recvCap := make(map[graph.NodeID]float64)
	for d := range inflow {
		recvCap[d] = cfg.RxCap * cfg.Faults.HostFactor(int(d))
	}
	referenceWaterFill(flows, cfg.FlowCap, effSend, recvCap, cfg.LineRate, cfg.RxCap)
}
