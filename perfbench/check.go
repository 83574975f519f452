package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"bwshare/internal/api"
	"bwshare/internal/core"
	"bwshare/internal/fault"
	"bwshare/internal/fleet"
	"bwshare/internal/graph"
	"bwshare/internal/measure"
	"bwshare/internal/netsim/gige"
	"bwshare/internal/netsim/infiniband"
	"bwshare/internal/netsim/myrinet"
	"bwshare/internal/predict"
	"bwshare/internal/report"
	"bwshare/internal/schemes"
	"bwshare/internal/topology"
)

// checkTol is the relative tolerance of every numeric output check.
const checkTol = 1e-9

// resolved is a prediction input rebuilt from the generator's plain
// values, without the API layer the served answer went through.
type resolved struct {
	g      *graph.Graph
	topo   topology.Spec
	sched  fault.Schedule
	model  core.Model
	ref    float64
	static bool
}

// resolve rebuilds an item's scheme, fabric and fault schedule.
func resolve(it *predictItem) (resolved, error) {
	m, sub, err := predict.LookupModel(it.model)
	if err != nil {
		return resolved{}, err
	}
	rv := resolved{model: m, ref: sub.RefRate(), static: it.static}
	if it.catalog != "" {
		g, found := schemes.Named(it.catalog)
		if !found {
			return resolved{}, fmt.Errorf("unknown catalog scheme %q", it.catalog)
		}
		rv.g = g
	} else if rv.g, err = buildGraph(it.comms); err != nil {
		return resolved{}, err
	}
	if it.topo != nil {
		rv.topo = topology.Spec{Kind: topology.FatTree, Switches: it.topo.Switches, HostsPerSwitch: it.topo.HostsPerSwitch, Oversub: it.topo.Oversub}
	}
	for _, f := range it.faults {
		e := fault.Event{Factor: f.Factor, At: f.At, Until: f.Until}
		switch f.Kind {
		case "link_down":
			e.Kind, e.Target = fault.LinkDown, *f.Switch
		case "link_degrade":
			e.Kind, e.Target = fault.LinkDegrade, *f.Switch
		default:
			e.Kind, e.Target = fault.HostSlow, *f.Host
		}
		rv.sched.Events = append(rv.sched.Events, e)
	}
	return rv, nil
}

// buildGraph builds a scheme from generated comms.
func buildGraph(comms []api.CommRequest) (*graph.Graph, error) {
	b := graph.NewBuilder()
	for _, c := range comms {
		b.Add(c.Label, graph.NodeID(c.Src), graph.NodeID(c.Dst), c.Volume)
	}
	return b.Build()
}

// session builds the prediction session the item needs.
func (rv resolved) session() (*predict.Session, error) {
	if rv.sched.Empty() {
		return predict.NewSessionWithTopology(rv.model, rv.ref, rv.topo), nil
	}
	return predict.NewSessionWithFaults(rv.model, rv.ref, rv.topo, rv.sched)
}

// prediction is an in-process answer to one item.
type prediction struct {
	rv         resolved
	pen, times []float64
}

// predictInProcess computes an item's answer with the predict package.
func predictInProcess(it *predictItem) (prediction, error) {
	rv, err := resolve(it)
	if err != nil {
		return prediction{}, err
	}
	sess, err := rv.session()
	if err != nil {
		return prediction{}, err
	}
	p := prediction{rv: rv, pen: sess.StaticPenalties(rv.g)}
	if rv.static {
		p.times = append([]float64(nil), sess.StaticTimes(rv.g)...)
	} else {
		p.times = append([]float64(nil), sess.Times(rv.g)...)
	}
	return p, nil
}

// text renders the answer as ?format=text does.
func (p prediction) text() []byte {
	var buf bytes.Buffer
	report.PredictionText(&buf, p.rv.model.Name(), !p.rv.static, p.rv.ref, p.rv.g, p.pen, p.times, nil)
	if !p.rv.topo.Trivial() {
		report.LinkUtilText(&buf, p.rv.topo, report.BuildLinkUtil(p.rv.topo, p.rv.g, p.times, p.rv.ref))
	}
	return buf.Bytes()
}

// compareJSON checks a served JSON prediction against the in-process one.
func (p prediction) compareJSON(raw []byte) error {
	var got report.Prediction
	if err := json.Unmarshal(raw, &got); err != nil {
		return fmt.Errorf("decoding prediction: %v", err)
	}
	if got.Model != p.rv.model.Name() || got.Progressive == p.rv.static || got.RefRate != p.rv.ref {
		return fmt.Errorf("header (%s, progressive=%v, ref=%g) want (%s, %v, %g)", got.Model, got.Progressive, got.RefRate, p.rv.model.Name(), !p.rv.static, p.rv.ref)
	}
	if len(got.Comms) != p.rv.g.Len() {
		return fmt.Errorf("%d comms, want %d", len(got.Comms), p.rv.g.Len())
	}
	for i, c := range got.Comms {
		want := p.rv.g.Comm(graph.CommID(i))
		if c.Label != want.Label || c.Src != int(want.Src) || c.Dst != int(want.Dst) || c.Volume != want.Volume {
			return fmt.Errorf("comm %d is %s %d->%d %g, want %s %d->%d %g", i, c.Label, c.Src, c.Dst, c.Volume, want.Label, want.Src, want.Dst, want.Volume)
		}
		if !relClose(c.StaticPenalty, p.pen[i], checkTol) || !relClose(c.Time, p.times[i], checkTol) {
			return fmt.Errorf("comm %s: penalty %g time %g, want %g %g", c.Label, c.StaticPenalty, c.Time, p.pen[i], p.times[i])
		}
	}
	links := report.BuildLinkUtil(p.rv.topo, p.rv.g, p.times, p.rv.ref)
	if len(got.Links) != len(links) {
		return fmt.Errorf("%d link records, want %d", len(got.Links), len(links))
	}
	for i, l := range got.Links {
		w := links[i]
		if l.Switch != w.Switch || l.Dir != w.Dir || l.Comms != w.Comms || !relClose(l.Bytes, w.Bytes, checkTol) ||
			!relClose(l.MeanRate, w.MeanRate, checkTol) || !relClose(l.Utilization, w.Utilization, checkTol) {
			return fmt.Errorf("link %d: %+v, want %+v", i, l, w)
		}
	}
	return nil
}

// checkPredict verifies the answer to a prediction request (single,
// text or batch) against in-process predictions of its items.
func checkPredict(req *request, body []byte, memo map[*predictItem]prediction) error {
	want := make([]prediction, len(req.items))
	for i, it := range req.items {
		p, found := memo[it]
		if !found {
			var err error
			if p, err = predictInProcess(it); err != nil {
				return fmt.Errorf("in-process prediction: %v", err)
			}
			memo[it] = p
		}
		want[i] = p
	}
	switch req.class {
	case "text":
		if !bytes.Equal(body, want[0].text()) {
			return fmt.Errorf("text answer differs from the in-process rendering")
		}
		return nil
	case "batch":
		var doc struct {
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return fmt.Errorf("decoding batch: %v", err)
		}
		if len(doc.Results) != len(want) {
			return fmt.Errorf("batch of %d results, want %d", len(doc.Results), len(want))
		}
		for i, raw := range doc.Results {
			if err := want[i].compareJSON(raw); err != nil {
				return fmt.Errorf("batch item %d: %v", i, err)
			}
		}
		return nil
	default:
		return want[0].compareJSON(body)
	}
}

// refFleet replays a serve-compute set-up on an in-process manager, so
// placement rankings on the read-only clusters can be checked.
func refFleet(g *computeGen) (*fleet.Manager, error) {
	m := fleet.NewManager()
	for _, c := range append(append([]clusterDef(nil), g.reads...), g.writes...) {
		if _, err := m.Create(c.spec()); err != nil {
			return nil, err
		}
		for _, r := range c.residents {
			sg, err := buildGraph(r.comms)
			if err != nil {
				return nil, err
			}
			if _, err := m.AddJob(c.name, r.job, sg, "", r.seeds); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// spec converts a cluster definition to the fleet's own form.
func (c clusterDef) spec() fleet.Spec {
	s := fleet.Spec{Name: c.name, Model: c.model, Hosts: c.hosts}
	if c.topo != nil {
		s.Topo = topology.Spec{Kind: topology.FatTree, Switches: c.topo.Switches, HostsPerSwitch: c.topo.HostsPerSwitch, Oversub: c.topo.Oversub}
	}
	return s
}

// checkPlacements verifies a served placement ranking against the
// in-process manager's ranking of the same job.
func checkPlacements(m *fleet.Manager, f *fleetOp, body []byte) error {
	var doc struct {
		Cluster    string `json:"cluster"`
		Candidates []struct {
			Strategy      string  `json:"strategy"`
			Hosts         []int   `json:"hosts"`
			JobTime       float64 `json:"job_time_s"`
			ClusterTime   float64 `json:"cluster_time_s"`
			CoreCrossings int     `json:"core_crossings"`
		} `json:"candidates"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("decoding placements: %v", err)
	}
	sg, err := buildGraph(f.comms)
	if err != nil {
		return err
	}
	want, err := m.Placements(f.cluster, sg, f.seeds)
	if err != nil {
		return fmt.Errorf("in-process placements: %v", err)
	}
	if doc.Cluster != f.cluster || len(doc.Candidates) != len(want) {
		return fmt.Errorf("ranking of %d candidates on %q, want %d on %q", len(doc.Candidates), doc.Cluster, len(want), f.cluster)
	}
	for i, c := range doc.Candidates {
		w := want[i]
		same := c.Strategy == w.Strategy && len(c.Hosts) == len(w.Hosts) && c.CoreCrossings == w.CoreCrossings &&
			relClose(c.JobTime, w.JobTime, checkTol) && relClose(c.ClusterTime, w.ClusterTime, checkTol)
		for r := 0; same && r < len(c.Hosts); r++ {
			same = c.Hosts[r] == int(w.Hosts[r])
		}
		if !same {
			return fmt.Errorf("candidate %d: %+v, want %+v", i, c, w)
		}
	}
	return nil
}

// substrate returns the engine that plays the measured side of an item,
// or nil when no substrate models its fabric (the packet-level Myrinet
// substrate has neither fat-trees nor faults).
func substrate(it *predictItem, rv resolved) core.Engine {
	switch it.model {
	case "myrinet":
		if !rv.topo.Trivial() || !rv.sched.Empty() {
			return nil
		}
		return myrinet.New(myrinet.DefaultConfig())
	case "infiniband":
		cfg := infiniband.DefaultConfig()
		cfg.Topo, cfg.Faults = rv.topo, rv.sched
		return infiniband.New(cfg)
	default:
		cfg := gige.DefaultConfig()
		cfg.Topo, cfg.Faults = rv.topo, rv.sched
		return gige.New(cfg)
	}
}

// predictionError is the paper's prediction-versus-substrate
// comparison over a sample of served items: it predicts every item
// in-process, runs the items a substrate models on it, and returns the
// mean relative error over the compared communications and their count.
func predictionError(items []*predictItem) (float64, int, error) {
	sum, comms := 0.0, 0
	for _, it := range items {
		rv, err := resolve(it)
		if err != nil {
			return 0, 0, err
		}
		e := substrate(it, rv)
		if e == nil {
			continue
		}
		sess, err := rv.session()
		if err != nil {
			return 0, 0, err
		}
		var pred []float64
		if rv.static {
			pred = sess.StaticTimes(rv.g)
		} else {
			pred = sess.Times(rv.g)
		}
		for k, m := range measure.Run(e, rv.g).Times {
			sum += math.Abs((pred[k] - m) / m)
			comms++
		}
	}
	if comms == 0 {
		return 0, 0, nil
	}
	return 100 * sum / float64(comms), comms, nil
}
