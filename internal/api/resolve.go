// Scheme, fabric and fault-schedule resolution: the one place the
// serving layer turns a request into a validated graph + topology +
// schedule triple. The worker tier predicts on the result; the gateway
// tier hashes it into a shard key. Keeping a single implementation
// means the two tiers can never disagree about what a request denotes.
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
	if req.Topology != nil {
		if !topo.Trivial() {
			return nil, topo, sched, fmt.Errorf("scheme text already declares topology %q; drop the request's topology block", topo)
		}
		if topo, err = req.Topology.Spec(); err != nil {
			return nil, topo, sched, err
		}
	}
	if len(req.Faults) > 0 {
		if !sched.Empty() {
			return nil, topo, sched, fmt.Errorf("scheme text already declares fault: headers; drop the request's faults block")
		}
		if sched, err = BuildSchedule(req.Faults); err != nil {
			return nil, topo, sched, err
		}
		// Scheme-header faults were already checked against the scheme's
		// own topology header at parse time; JSON faults are checked here
		// against whichever fabric won.
		for i, e := range sched.Events {
			if err := fault.CheckEvent(e, topo); err != nil {
				return nil, topo, sched, fmt.Errorf("faults[%d]: %s", i, err)
			}
		}
	} else {
		// BuildSchedule bounded the faults block; bound the scheme's
		// fault: headers the same way.
		if len(sched.Events) > MaxFaultEvents {
			return nil, topo, sched, fmt.Errorf("schedule of %d faults exceeds limit %d", len(sched.Events), MaxFaultEvents)
		}
		for _, e := range sched.Events {
			if err := checkFaultHost(e); err != nil {
				return nil, topo, sched, fmt.Errorf("fault (%s): %s", e, err)
			}
		}
	}
	if g.Len() > MaxComms {
		return nil, topo, sched, fmt.Errorf("scheme has %d communications, limit %d", g.Len(), MaxComms)
	}
	if g.MaxNode() >= MaxNodeID {
		return nil, topo, sched, fmt.Errorf("node id %d exceeds limit %d", g.MaxNode(), MaxNodeID-1)
	}
	if err := topo.CheckFit(g.MaxNode()); err != nil {
		return nil, topo, sched, err
	}
	if req.Static && !topo.Trivial() {
		// The static formulas are the paper's crossbar-level expressions
		// and cannot see the fabric; answering them under a declared
		// topology would report link utilizations the times ignore.
		return nil, topo, sched, fmt.Errorf("static prediction is crossbar-only; drop static or the topology")
	}
	if req.Static && !sched.Empty() {
		// Same mismatch: the static formulas have no clock for a fault
		// schedule to tick against.
		return nil, topo, sched, fmt.Errorf("static prediction cannot model faults; drop static or the faults")
	}
	return g, topo, sched, nil
}

// ResolveGraphForm resolves just the scheme form (catalog name, scheme
// text, or structured comms) without applying the request-level
// topology/fault blocks or the size limits.
func ResolveGraphForm(req PredictRequest) (*graph.Graph, topology.Spec, fault.Schedule, error) {
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
		return nil, topology.Spec{}, fault.Schedule{}, fmt.Errorf("exactly one of name, scheme or comms must be given")
	}
	switch {
	case req.Name != "":
		g, ok := schemes.Named(req.Name)
		if !ok {
			return nil, topology.Spec{}, fault.Schedule{}, fmt.Errorf("unknown scheme %q (see /v1/schemes)", req.Name)
		}
		return g, topology.Spec{}, fault.Schedule{}, nil
	case req.Scheme != "":
		return schemelang.ParseFull(req.Scheme)
	default:
		b := graph.NewBuilder()
		for i, c := range req.Comms {
			label := c.Label
			if label == "" {
				label = fmt.Sprintf("c%d", i)
			}
			vol := c.Volume
			if vol == 0 {
				vol = schemelang.DefaultVolume
			}
			b.Add(label, graph.NodeID(c.Src), graph.NodeID(c.Dst), vol)
		}
		g, err := b.Build()
		return g, topology.Spec{}, fault.Schedule{}, err
	}
}
