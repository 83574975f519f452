package netsim

import (
	"math"

	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/topology"
)

// Map-based reference implementations of the topology-aware allocation
// path, in the style of reference.go: the dense-indexed code in topo.go
// is differential-tested against these (topo_test.go) and must produce
// bit-identical rates. Do not "optimize" this file.

// linkSide is the reference per-link state (one direction of one edge
// switch's uplink).
type linkSide struct {
	left  float64
	orig  float64
	count int
}

// referenceWaterFillTopo is referenceWaterFill extended with uplink and
// downlink constraints; constraint evaluation order per flow (flow cap,
// sender, receiver, uplink, downlink) matches denseFill.runTopo exactly.
// fs (nil = healthy) scales per-switch uplink capacities by the fault
// overlay's link factors, mirroring prepTopoLinks.
func referenceWaterFillTopo(flows []*Flow, flowCap float64, senderCap, recvCap map[graph.NodeID]float64, defSend, defRecv float64, topo topology.Spec, hostRate float64, fs *fault.State) {
	if topo.Trivial() {
		referenceWaterFill(flows, flowCap, senderCap, recvCap, defSend, defRecv)
		return
	}
	const relEps = 1e-9
	type side struct {
		left  float64
		orig  float64
		count int
	}
	linkCap := topo.UplinkCap(hostRate)
	snd := make(map[graph.NodeID]*side)
	rcv := make(map[graph.NodeID]*side)
	up := make(map[int]*linkSide)
	dn := make(map[int]*linkSide)
	// crosses[i] caches whether flow i traverses the core; intra-switch
	// flows have no link constraints.
	crosses := make([]bool, len(flows))
	for i, f := range flows {
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
		ss, ds := topo.SwitchOf(f.Src), topo.SwitchOf(f.Dst)
		if ss == ds {
			continue
		}
		crosses[i] = true
		if up[ss] == nil {
			c := linkCap * fs.LinkFactor(ss)
			up[ss] = &linkSide{left: c, orig: c}
		}
		if dn[ds] == nil {
			c := linkCap * fs.LinkFactor(ds)
			dn[ds] = &linkSide{left: c, orig: c}
		}
		up[ss].count++
		dn[ds].count++
	}
	frozen := make([]bool, len(flows))
	remaining := len(flows)
	for remaining > 0 {
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
			if crosses[i] {
				if u := up[topo.SwitchOf(f.Src)]; u.count > 0 {
					if h := u.left / float64(u.count); h < inc {
						inc = h
					}
				}
				if d := dn[topo.SwitchOf(f.Dst)]; d.count > 0 {
					if h := d.left / float64(d.count); h < inc {
						inc = h
					}
				}
			}
		}
		if math.IsInf(inc, 1) {
			break
		}
		if inc < 0 {
			inc = 0
		}
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			f.Rate += inc
			snd[f.Src].left -= inc
			rcv[f.Dst].left -= inc
			if crosses[i] {
				up[topo.SwitchOf(f.Src)].left -= inc
				dn[topo.SwitchOf(f.Dst)].left -= inc
			}
		}
		progressed := false
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			s, r := snd[f.Src], rcv[f.Dst]
			sat := flowCap-f.Rate <= relEps*flowCap ||
				s.left <= relEps*s.orig || r.left <= relEps*r.orig
			if !sat && crosses[i] {
				u, d := up[topo.SwitchOf(f.Src)], dn[topo.SwitchOf(f.Dst)]
				sat = u.left <= relEps*u.orig || d.left <= relEps*d.orig
			}
			if sat {
				frozen[i] = true
				s.count--
				r.count--
				if crosses[i] {
					up[topo.SwitchOf(f.Src)].count--
					dn[topo.SwitchOf(f.Dst)].count--
				}
				remaining--
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
}

// referenceCoupledTopoAllocate is referenceCoupledAllocate with the
// topology-constrained phase 3: sender coupling is computed exactly as
// on a crossbar (pause frames and credit stalls are a NIC-level
// mechanism), then the final water-fill adds the fabric links.
func referenceCoupledTopoAllocate(cfg CoupledConfig, flows []*Flow) {
	if cfg.Topo.Trivial() {
		referenceCoupledAllocate(cfg, flows)
		return
	}
	nPerSender := make(map[graph.NodeID]int)
	for _, f := range flows {
		nPerSender[f.Src]++
	}
	base := func(f *Flow) float64 {
		return math.Min(cfg.FlowCap, cfg.LineRate*cfg.Faults.HostFactor(int(f.Src))/float64(nPerSender[f.Src]))
	}
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
	recvCap := make(map[graph.NodeID]float64)
	for d := range inflow {
		recvCap[d] = cfg.RxCap * cfg.Faults.HostFactor(int(d))
	}
	referenceWaterFillTopo(flows, cfg.FlowCap, effSend, recvCap, cfg.LineRate, cfg.RxCap, cfg.Topo, cfg.FlowCap, cfg.Faults)
}
