// Package api holds the serving layer's shared request/response
// contract: the JSON DTOs of the prediction and cluster endpoints, the
// request size limits, scheme/topology/fault resolution with its
// validation rules, the strict GET query grammar, the error-to-status
// mapping, and how bodies are read and answers written (DecodeJSON,
// DecodeBody, WriteJSON, the batch envelope). Both tiers build on it —
// internal/server (the worker tier) decodes, validates and answers
// with these types, and
// internal/gateway (the routing tier) parses just enough of a request
// to compute its shard key without ever re-implementing the grammar.
//
// The package deliberately imports only the data-layer packages
// (graph, schemelang, schemes, topology, fault) and none of the
// simulation engine (core, netsim, predict, fleet): a gateway binary
// linking api must not drag the simulator in, and the contract must
// never grow a dependency on how predictions are computed.
package api

import (
	"fmt"

	"bwshare/internal/fault"
	"bwshare/internal/topology"
)

// MaxBatch bounds the number of requests in one /v1/predict/batch call.
const MaxBatch = 256

// MaxComms and MaxNodeID bound accepted schemes: generous for cluster
// communication schemes (the paper's largest has 10 communications) but
// small enough that a hostile request cannot make the models' conflict
// analysis or the engine's dense per-node tables arbitrarily expensive.
const (
	MaxComms  = 4096
	MaxNodeID = 1 << 16
)

// MaxBodyBytes bounds request bodies; schemes are small text documents.
const MaxBodyBytes = 1 << 20

// MaxFaultEvents bounds the fault schedule of one request: generous for
// resilience studies, small enough that a hostile schedule cannot make
// timeline compilation or mid-replay churn arbitrarily expensive.
const MaxFaultEvents = 256

// DefaultModel is the model assumed when a request leaves Model empty.
const DefaultModel = "gige"

// CanonicalModel resolves the registry aliases the serving layer
// accepts without validating the name: the empty string means
// DefaultModel and "ib" is shorthand for "infiniband". Unknown names
// pass through unchanged — the worker tier owns the registry and
// rejects them; the gateway only needs alias-stable shard keys.
func CanonicalModel(name string) string {
	switch name {
	case "":
		return DefaultModel
	case "ib":
		return "infiniband"
	}
	return name
}

// PredictRequest is the body of POST /v1/predict. Exactly one of Name,
// Scheme or Comms selects the communication scheme.
type PredictRequest struct {
	// Model is a model registry name ("gige", "myrinet", "infiniband",
	// "ib", "kimlee", "linear"). Default "gige".
	Model string `json:"model,omitempty"`
	// Name selects a built-in catalog scheme (see /v1/schemes).
	Name string `json:"name,omitempty"`
	// Scheme is a scheme description in the schemelang syntax.
	Scheme string `json:"scheme,omitempty"`
	// Comms is the structured alternative to Scheme.
	Comms []CommRequest `json:"comms,omitempty"`
	// Static selects the static formulas instead of the progressive
	// simulator.
	Static bool `json:"static,omitempty"`
	// RefRate overrides the substrate reference rate (bytes/second).
	RefRate float64 `json:"ref_rate,omitempty"`
	// Topology places the scheme on a multi-switch fabric; omitted or
	// kind "crossbar" is the paper's single switch. Scheme text with a
	// 'topology:' header may not also carry this block.
	Topology *TopologyRequest `json:"topology,omitempty"`
	// Faults degrade the fabric mid-replay; omitted means healthy.
	// Scheme text with 'fault:' headers may not also carry this block,
	// and static predictions (which have no clock) reject faults.
	Faults []FaultRequest `json:"faults,omitempty"`
}

// TopologyRequest is the JSON form of a fabric description.
type TopologyRequest struct {
	// Kind is "crossbar", "star" or "fattree".
	Kind string `json:"kind"`
	// Switches and HostsPerSwitch size the fabric (star/fattree).
	Switches       int `json:"switches,omitempty"`
	HostsPerSwitch int `json:"hosts_per_switch,omitempty"`
	// Oversub is the fat-tree oversubscription ratio (>= 1).
	Oversub float64 `json:"oversub,omitempty"`
	// Place is "block" (default) or "roundrobin".
	Place string `json:"place,omitempty"`
}

// Spec converts and validates the request block.
func (tr *TopologyRequest) Spec() (topology.Spec, error) {
	if tr == nil {
		return topology.Spec{}, nil
	}
	kind, err := topology.ParseKind(tr.Kind)
	if err != nil {
		return topology.Spec{}, err
	}
	spec := topology.Spec{
		Kind:           kind,
		Switches:       tr.Switches,
		HostsPerSwitch: tr.HostsPerSwitch,
		Oversub:        tr.Oversub,
	}
	if tr.Place != "" {
		if spec.Place, err = topology.ParsePlacement(tr.Place); err != nil {
			return topology.Spec{}, err
		}
	}
	if err := spec.Validate(); err != nil {
		return topology.Spec{}, err
	}
	return spec, nil
}

// FaultRequest is one scheduled fault in JSON form. Kind selects the
// family; Switch (link kinds) or Host (host_slow) names the target —
// pointers, so target 0 is distinguishable from an omitted field.
type FaultRequest struct {
	// Kind is "link_down", "link_degrade" or "host_slow".
	Kind string `json:"kind"`
	// Switch is the edge-switch index for the link kinds.
	Switch *int `json:"switch,omitempty"`
	// Host is the host id for host_slow.
	Host *int `json:"host,omitempty"`
	// Factor is the capacity multiplier in [0, 1] (degrade/slow only).
	Factor float64 `json:"factor,omitempty"`
	// At is the injection time in simulated seconds; <= 0 folds into the
	// initial fabric state.
	At float64 `json:"at"`
	// Until is the repair time (strictly after At); omitted means the
	// fault never repairs.
	Until float64 `json:"until,omitempty"`
}

// Event converts the request form, attributing errors to faults[i].
// Fabric-dependent checks (does the switch exist?) happen later, once
// the topology is fully resolved.
func (fr FaultRequest) Event(i int) (fault.Event, error) {
	var e fault.Event
	var target *int
	switch fr.Kind {
	case "link_down":
		e.Kind, target = fault.LinkDown, fr.Switch
	case "link_degrade":
		e.Kind, target = fault.LinkDegrade, fr.Switch
	case "host_slow":
		e.Kind, target = fault.HostSlow, fr.Host
	default:
		return fault.Event{}, fmt.Errorf("faults[%d]: unknown kind %q (want link_down, link_degrade or host_slow)", i, fr.Kind)
	}
	if e.Kind == fault.HostSlow && fr.Switch != nil {
		return fault.Event{}, fmt.Errorf("faults[%d]: host_slow takes a host, not a switch", i)
	}
	if e.Kind != fault.HostSlow && fr.Host != nil {
		return fault.Event{}, fmt.Errorf("faults[%d]: %s takes a switch, not a host", i, fr.Kind)
	}
	if target == nil {
		field := "switch"
		if e.Kind == fault.HostSlow {
			field = "host"
		}
		return fault.Event{}, fmt.Errorf("faults[%d]: %s faults need a %q field", i, fr.Kind, field)
	}
	e.Target = *target
	if err := checkFaultHost(e); err != nil {
		return fault.Event{}, fmt.Errorf("faults[%d]: %s", i, err)
	}
	e.Factor = fr.Factor
	e.At = fr.At
	e.Until = fr.Until
	return e, nil
}

// checkFaultHost bounds a host fault's target by MaxNodeID. A crossbar
// declares no host count of its own, and the compiled fault state keeps
// one factor per host up to the largest target, so an unbounded id
// would size that table from the request.
func checkFaultHost(e fault.Event) error {
	if e.Kind == fault.HostSlow && e.Target >= MaxNodeID {
		return fmt.Errorf("host %d exceeds limit %d", e.Target, MaxNodeID-1)
	}
	return nil
}

// BuildSchedule converts a request's faults block into a fault
// schedule, enforcing MaxFaultEvents. Fabric-dependent checks are the
// caller's job (the fabric may not be resolved yet).
func BuildSchedule(frs []FaultRequest) (fault.Schedule, error) {
	if len(frs) == 0 {
		return fault.Schedule{}, nil
	}
	if len(frs) > MaxFaultEvents {
		return fault.Schedule{}, fmt.Errorf("schedule of %d faults exceeds limit %d", len(frs), MaxFaultEvents)
	}
	events := make([]fault.Event, len(frs))
	for i, fr := range frs {
		var err error
		if events[i], err = fr.Event(i); err != nil {
			return fault.Schedule{}, err
		}
	}
	return fault.Schedule{Events: events}, nil
}

// CommRequest is one structured communication. An empty Label is
// auto-assigned c<index>; a zero Volume means schemelang.DefaultVolume.
type CommRequest struct {
	Label  string  `json:"label,omitempty"`
	Src    int     `json:"src"`
	Dst    int     `json:"dst"`
	Volume float64 `json:"volume,omitempty"`
}

// BatchRequest is the body of POST /v1/predict/batch.
type BatchRequest struct {
	Requests []PredictRequest `json:"requests"`
}

// ClusterRequest is the body of POST /v1/clusters.
type ClusterRequest struct {
	// Name identifies the cluster (lowercase letters, digits, dashes).
	Name string `json:"name"`
	// Model is a predict model registry name (default "gige").
	Model string `json:"model,omitempty"`
	// RefRate overrides the substrate reference rate (bytes/second).
	RefRate float64 `json:"ref_rate,omitempty"`
	// Hosts is the host count; required for crossbar fabrics, derived
	// (or cross-checked) for multi-switch ones.
	Hosts int `json:"hosts,omitempty"`
	// Topology is the fabric; omitted means the paper's single crossbar.
	Topology *TopologyRequest `json:"topology,omitempty"`
	// Faults degrades the cluster's fabric for its whole lifetime; every
	// admission and placement what-if is scored under this schedule.
	Faults []FaultRequest `json:"faults,omitempty"`
}

// JobRequest is the body of POST /v1/clusters/{name}/jobs. Exactly one
// of Catalog, Scheme or Comms gives the job's communication scheme; its
// node ids are task ranks, mapped to hosts by the placement engine.
type JobRequest struct {
	// Name identifies the job within its cluster.
	Name string `json:"name"`
	// Catalog selects a built-in scheme (see /v1/schemes).
	Catalog string `json:"catalog,omitempty"`
	// Scheme is schemelang text. A 'topology:' header is rejected here:
	// the cluster owns the fabric.
	Scheme string `json:"scheme,omitempty"`
	// Comms is the structured alternative.
	Comms []CommRequest `json:"comms,omitempty"`
	// Strategy pins a placement candidate ("block", "roundrobin",
	// "greedy", "random:<k>"); empty or "best" admits the best-scoring
	// candidate.
	Strategy string `json:"strategy,omitempty"`
	// Seeds adds seeded-random candidates to the best-of enumeration.
	Seeds int `json:"seeds,omitempty"`
}

// PlacementsRequest is the body of POST /v1/clusters/{name}/placements:
// a what-if JobRequest without a name or admission.
type PlacementsRequest struct {
	Catalog string        `json:"catalog,omitempty"`
	Scheme  string        `json:"scheme,omitempty"`
	Comms   []CommRequest `json:"comms,omitempty"`
	Seeds   int           `json:"seeds,omitempty"`
}
