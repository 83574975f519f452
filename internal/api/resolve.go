// Scheme, fabric and fault-schedule resolution: the one place the
// serving layer turns a request into a validated graph + topology +
// schedule triple. Key.Resolve (key.go) applies the same rules without
// building the graph, and both tiers key on it; the worker builds the
// graph only on a cache miss, and falls back to ResolveGraph for the
// error a rejected request is answered with. Keeping a single set of
// rules means the two tiers can never disagree about what a request
// denotes.
package api

import (
	"fmt"

	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/schemelang"
	"bwshare/internal/schemes"
	"bwshare/internal/topology"
)

// ResolveGraph builds the scheme graph, fabric and fault schedule from
// exactly one of the three request forms and enforces the service's
// size limits. The fabric comes from the request's topology block or
// (scheme text only) a 'topology:' header, but not both; likewise the
// faults come from the request's faults block or the scheme's 'fault:'
// headers, but not both. Fabric-dependent fault checks run here, after
// the topology is final.
func ResolveGraph(req PredictRequest) (*graph.Graph, topology.Spec, fault.Schedule, error) {
	g, topo, sched, err := ResolveGraphForm(req)
	if err != nil {
		return nil, topo, sched, err
	}
	if topo, sched, err = resolveBlocks(&req, g.Len(), g.MaxNode(), topo, sched); err != nil {
		return nil, topo, sched, err
	}
	return g, topo, sched, nil
}

// resolveBlocks applies the request-level topology and faults blocks to
// the fabric and schedule the scheme form declared, and enforces the
// size limits on a scheme of n communications whose largest node id is
// maxNode. ResolveGraph and Key.Resolve share it, so the graph-free key
// accepts exactly the requests whose graphs ResolveGraph accepts.
func resolveBlocks(req *PredictRequest, n int, maxNode graph.NodeID, topo topology.Spec, sched fault.Schedule) (topology.Spec, fault.Schedule, error) {
	var err error
	if req.Topology != nil {
		if !topo.Trivial() {
			return topo, sched, fmt.Errorf("scheme text already declares topology %q; drop the request's topology block", topo)
		}
		if topo, err = req.Topology.Spec(); err != nil {
			return topo, sched, err
		}
	}
	if len(req.Faults) > 0 {
		if !sched.Empty() {
			return topo, sched, fmt.Errorf("scheme text already declares fault: headers; drop the request's faults block")
		}
		if sched, err = BuildSchedule(req.Faults); err != nil {
			return topo, sched, err
		}
		// Scheme-header faults were already checked against the scheme's
		// own topology header at parse time; JSON faults are checked here
		// against whichever fabric won.
		for i, e := range sched.Events {
			if err := fault.CheckEvent(e, topo); err != nil {
				return topo, sched, fmt.Errorf("faults[%d]: %s", i, err)
			}
		}
	} else {
		// BuildSchedule bounded the faults block; bound the scheme's
		// fault: headers the same way.
		if len(sched.Events) > MaxFaultEvents {
			return topo, sched, fmt.Errorf("schedule of %d faults exceeds limit %d", len(sched.Events), MaxFaultEvents)
		}
		for _, e := range sched.Events {
			if err := checkFaultHost(e); err != nil {
				return topo, sched, fmt.Errorf("fault (%s): %s", e, err)
			}
		}
	}
	if n > MaxComms {
		return topo, sched, fmt.Errorf("scheme has %d communications, limit %d", n, MaxComms)
	}
	if maxNode >= MaxNodeID {
		return topo, sched, fmt.Errorf("node id %d exceeds limit %d", maxNode, MaxNodeID-1)
	}
	if err := topo.CheckFit(maxNode); err != nil {
		return topo, sched, err
	}
	if req.Static && !topo.Trivial() {
		// The static formulas are the paper's crossbar-level expressions
		// and cannot see the fabric; answering them under a declared
		// topology would report link utilizations the times ignore.
		return topo, sched, fmt.Errorf("static prediction is crossbar-only; drop static or the topology")
	}
	if req.Static && !sched.Empty() {
		// Same mismatch: the static formulas have no clock for a fault
		// schedule to tick against.
		return topo, sched, fmt.Errorf("static prediction cannot model faults; drop static or the faults")
	}
	return topo, sched, nil
}

// ResolveGraphForm resolves just the scheme form (catalog name, scheme
// text, or structured comms) without applying the request-level
// topology/fault blocks or the size limits.
func ResolveGraphForm(req PredictRequest) (*graph.Graph, topology.Spec, fault.Schedule, error) {
	if err := checkForm(&req); err != nil {
		return nil, topology.Spec{}, fault.Schedule{}, err
	}
	switch {
	case req.Name != "":
		g, ok := schemes.Named(req.Name)
		if !ok {
			return nil, topology.Spec{}, fault.Schedule{}, errUnknownScheme(req.Name)
		}
		return g, topology.Spec{}, fault.Schedule{}, nil
	case req.Scheme != "":
		return schemelang.ParseFull(req.Scheme)
	default:
		g, err := buildComms(req.Comms)
		return g, topology.Spec{}, fault.Schedule{}, err
	}
}

// checkForm requires exactly one of the three scheme forms.
func checkForm(req *PredictRequest) error {
	set := 0
	if req.Name != "" {
		set++
	}
	if req.Scheme != "" {
		set++
	}
	if len(req.Comms) > 0 {
		set++
	}
	if set != 1 {
		return fmt.Errorf("exactly one of name, scheme or comms must be given")
	}
	return nil
}

func errUnknownScheme(name string) error {
	return fmt.Errorf("unknown scheme %q (see /v1/schemes)", name)
}

// buildComms builds the graph of the structured comms form: an empty
// label is c<index>, a zero volume schemelang.DefaultVolume.
func buildComms(comms []CommRequest) (*graph.Graph, error) {
	b := graph.NewBuilder()
	for i, c := range comms {
		label := c.Label
		if label == "" {
			label = fmt.Sprintf("c%d", i)
		}
		b.Add(label, graph.NodeID(c.Src), graph.NodeID(c.Dst), commVolume(c.Volume))
	}
	return b.Build()
}

// commVolume is a structured comm's effective volume.
func commVolume(v float64) float64 {
	if v == 0 {
		return schemelang.DefaultVolume
	}
	return v
}
