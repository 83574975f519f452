package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"time"

	"bwshare"
	"bwshare/internal/api"
	"bwshare/internal/core"
	"bwshare/internal/fault"
	"bwshare/internal/fleet"
	"bwshare/internal/gateway"
	"bwshare/internal/graph"
	"bwshare/internal/predict"
	"bwshare/internal/report"
	"bwshare/internal/schemelang"
	"bwshare/internal/server"
	"bwshare/internal/topology"
)

// Traced-pass sizes: the number of ops replayed in-process, and the
// fewest placement rankings serve-compute's pass runs so that
// fleet.placements_us_p99 has its 1,000 samples.
const (
	tracedOps        = 2000
	tracedPlacements = 100 * minTail
)

// memDelta is the allocation work between two runtime.MemStats reads.
type memDelta struct{ mallocs, bytes, gcs uint64 }

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, uint64(after.NumGC - before.NumGC)}
}

// bufferWriter is an http.ResponseWriter that keeps the body.
type bufferWriter struct {
	h   http.Header
	buf bytes.Buffer
}

func (b *bufferWriter) Header() http.Header {
	if b.h == nil {
		b.h = make(http.Header)
	}
	return b.h
}
func (b *bufferWriter) Write(p []byte) (int, error) { return b.buf.Write(p) }
func (b *bufferWriter) WriteHeader(int)             {}

// servingPass is one in-process pass over a serving workload's ops.
type servingPass struct {
	w      workload
	tr     *tracer
	srv    *server.Server // the layer pass's worker
	mgr    *fleet.Manager
	models map[string]core.Model // penalty models, decorated when traced
	sess   map[string]*predict.Session
	ctx    context.Context

	httpBusy, layerBusy time.Duration
	outputs             []uint64 // digest of every answer, HTTP then layer
	mem                 memDelta
	requests            int
	reqBytes, respBytes int
	placements          int
	candidates          int
	missOverheadUS      []float64
	createUS            []float64
	gw                  gateway.Stats
	refusedAnswers      int
	srvStats            server.Stats
}

// digest hashes an answer for the traced-versus-untraced comparison.
func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// model returns the named registry model, decorated with a span per
// Penalties call when the pass is traced.
func (p *servingPass) model(name string) (core.Model, float64, error) {
	m, sub, err := predict.LookupModel(name)
	if err != nil {
		return nil, 0, err
	}
	if p.tr != nil {
		dm, seen := p.models[name]
		if !seen {
			dm = &tracedModel{Model: m, t: p.tr, name: "model.penalties"}
			p.models[name] = dm
		}
		m = dm
	}
	return m, sub.RefRate(), nil
}

// session returns a prediction session like the worker's: reused for the
// crossbar and a healthy fabric, built afresh otherwise.
func (p *servingPass) session(name string, topo topology.Spec, sched fault.Schedule) (*predict.Session, error) {
	m, ref, err := p.model(name)
	if err != nil {
		return nil, err
	}
	if topo.Trivial() && sched.Empty() {
		s := p.sess[name]
		if s == nil {
			s = predict.NewSession(m, ref)
			p.sess[name] = s
		}
		return s, nil
	}
	if sched.Empty() {
		return predict.NewSessionWithTopology(m, ref, topo), nil
	}
	return predict.NewSessionWithFaults(m, ref, topo, sched)
}

// answer is one prediction as the worker renders it.
type answer struct {
	doc  report.Prediction
	g    *graph.Graph
	topo topology.Spec
	res  server.Result
}

// predictOne runs one prediction through the layers as the worker's
// handler does: resolve, hash, Server.Predict; on a miss it also runs
// the predict layer on the same inputs, so the miss can be split into
// simulation and serving overhead.
func (p *servingPass) predictOne(pr api.PredictRequest) (answer, error) {
	id := p.tr.begin("api.resolve", "")
	g, topo, sched, err := api.ResolveGraph(pr)
	p.tr.end(id, "")
	if err != nil {
		return answer{}, err
	}
	id = p.tr.begin("schemelang.hash", "")
	schemelang.Hash(g)
	p.tr.end(id, "")
	model := api.CanonicalModel(pr.Model)
	id = p.tr.begin("server.predict", "")
	start := time.Now()
	res, err := p.srv.Predict(p.ctx, g, model, pr.Static, pr.RefRate, topo, sched)
	miss := time.Since(start)
	rename := "server.predict_miss"
	if res.Cached {
		rename = "server.predict_hit"
	}
	p.tr.end(id, rename)
	if err != nil {
		return answer{}, err
	}
	if !res.Cached {
		sess, err := p.session(model, topo, sched)
		if err != nil {
			return answer{}, err
		}
		start = time.Now()
		id = p.tr.begin("predict.static", "")
		sess.StaticPenalties(g)
		p.tr.end(id, "")
		id = p.tr.begin("predict.times", "")
		if pr.Static {
			sess.StaticTimes(g)
		} else {
			sess.Times(g)
		}
		p.tr.end(id, "")
		p.missOverheadUS = append(p.missOverheadUS, float64(miss-time.Since(start))/1e3)
	}
	return answer{g: g, topo: topo, res: res}, nil
}

// encodeJSON builds the answer's JSON document.
func (p *servingPass) encodeJSON(a *answer, static bool) {
	a.doc = report.BuildPrediction(p.srv.Model(a.res.Model).Name(), !static, a.res.RefRate, a.g, a.res.Penalties, a.res.Times)
	a.doc.Cached = a.res.Cached
	if !a.topo.Trivial() {
		a.doc.Topology = a.topo.String()
		a.doc.Links = report.BuildLinkUtil(a.topo, a.g, a.res.Times, a.res.RefRate)
	}
}

// layerCall answers one request by calling each layer's public
// functions in the order the worker's handlers do, and returns the
// answer's bytes.
func (p *servingPass) layerCall(req *request) ([]byte, error) {
	switch req.class {
	case "placements", "admit", "evict":
		return p.fleetCall(req)
	}
	var out bufferWriter
	u, err := url.Parse(req.path)
	if err != nil {
		return nil, err
	}
	p.reqBytes += len(req.body) + len(u.RawQuery)
	if req.class == "batch" {
		var batch api.BatchRequest
		id := p.tr.begin("api.decode", "")
		err := json.Unmarshal(req.body, &batch)
		p.tr.end(id, "")
		if err != nil {
			return nil, err
		}
		answers := make([]answer, len(batch.Requests))
		for i, pr := range batch.Requests {
			if answers[i], err = p.predictOne(pr); err != nil {
				return nil, err
			}
		}
		id = p.tr.begin("report.encode", "")
		results := make([]any, len(answers))
		for i := range answers {
			p.encodeJSON(&answers[i], batch.Requests[i].Static)
			results[i] = answers[i].doc
		}
		err = api.WriteJSON(&out, http.StatusOK, map[string]any{"results": results})
		p.tr.end(id, "")
		return out.buf.Bytes(), err
	}
	var pr api.PredictRequest
	id := p.tr.begin("api.decode", "")
	if req.method == "GET" {
		pr, _, err = api.ParsePredictQuery(u.Query())
	} else {
		err = json.Unmarshal(req.body, &pr)
	}
	p.tr.end(id, "")
	if err != nil {
		return nil, err
	}
	a, err := p.predictOne(pr)
	if err != nil {
		return nil, err
	}
	id = p.tr.begin("report.encode", "")
	if u.Query().Get("format") == "text" {
		report.PredictionText(&out, p.srv.Model(a.res.Model).Name(), !pr.Static, a.res.RefRate, a.g, a.res.Penalties, a.res.Times, nil)
		if !a.topo.Trivial() {
			report.LinkUtilText(&out, a.topo, report.BuildLinkUtil(a.topo, a.g, a.res.Times, a.res.RefRate))
		}
	} else {
		p.encodeJSON(&a, pr.Static)
		err = api.WriteJSON(&out, http.StatusOK, a.doc)
	}
	p.tr.end(id, "")
	return out.buf.Bytes(), err
}

// fleetCall runs a cluster operation through the api and fleet layers.
func (p *servingPass) fleetCall(req *request) ([]byte, error) {
	f := req.fleet
	p.reqBytes += len(req.body)
	if f.kind == "evict" {
		id := p.tr.begin("fleet.delete_job", "")
		err := p.mgr.DeleteJob(f.cluster, f.job)
		p.tr.end(id, "")
		return []byte(f.job), err
	}
	var jr api.JobRequest
	id := p.tr.begin("api.decode", "")
	err := json.Unmarshal(req.body, &jr)
	p.tr.end(id, "")
	if err != nil {
		return nil, err
	}
	id = p.tr.begin("api.resolve", "")
	g, _, _, err := api.ResolveGraphForm(api.PredictRequest{Comms: jr.Comms})
	p.tr.end(id, "")
	if err != nil {
		return nil, err
	}
	if f.kind == "admit" {
		id = p.tr.begin("fleet.add_job", "")
		info, err := p.mgr.AddJob(f.cluster, jr.Name, g, jr.Strategy, jr.Seeds)
		p.tr.end(id, "")
		if err != nil {
			return nil, err
		}
		return json.Marshal(info)
	}
	id = p.tr.begin("fleet.placements", "")
	cands, err := p.mgr.Placements(f.cluster, g, jr.Seeds)
	p.tr.end(id, "")
	if err != nil {
		return nil, err
	}
	p.placements++
	p.candidates += len(cands)
	return json.Marshal(cands)
}

// runServingPass builds fresh in-process instances, prepares them like
// the measured fleet, and replays the workload's first ops: over HTTP
// through gateway.New and server.New (serve-cached), then through the
// layers' functions. tr nil is the untraced pass. The layer pass runs
// ops ops, and more until it has ranked minPlacements placements;
// layerBusy covers the first ops ops.
func runServingPass(w workload, tr *tracer, ops, minPlacements int) (*servingPass, error) {
	p := &servingPass{w: w, tr: tr, models: make(map[string]core.Model), sess: make(map[string]*predict.Session), ctx: context.Background()}
	var gw *gateway.Gateway
	var entry string
	if w.gateway() {
		var ups []gateway.Upstream
		for i := 0; i < 2; i++ {
			hs := httptest.NewServer(traceHandler(tr, "server.http", "gateway.http", server.New(server.Config{}).Handler()))
			defer hs.Close()
			ups = append(ups, gateway.Upstream{Name: fmt.Sprintf("w%d", i), URL: hs.URL})
		}
		var err error
		if gw, err = gateway.New(gateway.Config{Upstreams: ups, HealthInterval: -1}); err != nil {
			return nil, err
		}
		defer gw.Close()
		hs := httptest.NewServer(traceHandler(tr, "gateway.http", "", gw))
		defer hs.Close()
		entry = hs.URL
		if err := prepare(entry, w, 1); err != nil {
			return nil, fmt.Errorf("in-process set-up: %w", err)
		}
		// The layer pass's worker holds the whole key set, warmed alike.
		p.srv = server.New(server.Config{CacheSize: 4 * cachedItems})
	} else {
		p.srv = server.New(server.Config{})
	}
	p.mgr = fleet.NewManager()
	for _, req := range w.setup() {
		switch req.class {
		case "create":
			var cr api.ClusterRequest
			if err := json.Unmarshal(req.body, &cr); err != nil {
				return nil, err
			}
			spec := fleet.Spec{Name: cr.Name, Model: cr.Model, Hosts: cr.Hosts}
			if cr.Topology != nil {
				var err error
				if spec.Topo, err = cr.Topology.Spec(); err != nil {
					return nil, err
				}
			}
			id := tr.begin("fleet.create", "")
			_, err := p.mgr.Create(spec)
			tr.end(id, "")
			if err != nil {
				return nil, err
			}
		default:
			if _, err := p.layerCall(&req); err != nil {
				return nil, fmt.Errorf("in-process set-up %s %s: %w", req.method, req.path, err)
			}
		}
	}
	// Set-up spans are dropped, except the cluster creations, which
	// happen only there.
	p.createUS = tr.durationsUS("fleet.create")
	tr.reset()
	p.missOverheadUS = nil
	p.reqBytes = 0
	before := p.srv.Snapshot()
	if gw != nil {
		t := newTarget(entry, 1)
		defer t.close()
		gwBefore := gw.Snapshot()
		start := time.Now()
		for i := 0; i < ops; i++ {
			for _, req := range w.op(i).reqs {
				tr.setRequest(int64(i))
				status, body, err := t.do(&req)
				if err != nil {
					return nil, err
				}
				if status == http.StatusTooManyRequests || status >= 500 {
					p.refusedAnswers++
				}
				p.outputs = append(p.outputs, digest(body))
			}
		}
		p.httpBusy = time.Since(start)
		p.gw = gw.Snapshot()
		p.gw.Rejected -= gwBefore.Rejected
		p.gw.Unavailable -= gwBefore.Unavailable
		p.gw.BadGateway -= gwBefore.BadGateway
		for i := range p.gw.Upstreams {
			p.gw.Upstreams[i].Requests -= gwBefore.Upstreams[i].Requests
		}
	}
	mem := readMem()
	start := time.Now()
	for i := 0; i < ops || p.placements < minPlacements; i++ {
		if i == ops {
			p.layerBusy = time.Since(start)
		}
		for _, req := range w.op(i).reqs {
			tr.setRequest(int64(openBase + i)) // apart from the HTTP pass's ids
			out, err := p.layerCall(&req)
			if err != nil {
				return nil, fmt.Errorf("op %d %s %s: %w", i, req.method, req.path, err)
			}
			p.respBytes += len(out)
			p.requests++
			p.outputs = append(p.outputs, digest(out))
		}
	}
	if p.layerBusy == 0 {
		p.layerBusy = time.Since(start)
	}
	p.mem = memSince(mem)
	after := p.srv.Snapshot()
	p.srvStats = server.Stats{CacheHits: after.CacheHits - before.CacheHits, CacheMisses: after.CacheMisses - before.CacheMisses}
	return p, nil
}

// tracedServing runs the serving workload's in-process pass untraced and
// traced, checks that both gave the same answers, and reports the
// per-layer metrics from the traced one.
func tracedServing(cfg runConfig, w workload, res *result) error {
	minPlacements := 0
	if !w.gateway() {
		minPlacements = tracedPlacements
	}
	plain, err := runServingPass(w, nil, tracedOps, 0)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := runServingPass(w, tr, tracedOps, minPlacements)
	if err != nil {
		return err
	}
	if len(traced.outputs) < len(plain.outputs) || !equalDigests(plain.outputs, traced.outputs[:len(plain.outputs)]) {
		res.problem("traced pass answered differently from the untraced pass")
	}
	// The first untraced pass also warms the process up; the overhead is
	// taken against a second one, over the first tracedOps ops.
	again, err := runServingPass(w, nil, tracedOps, 0)
	if err != nil {
		return err
	}
	untracedBusy := again.httpBusy + again.layerBusy
	res.set("bench.trace_overhead_pct", 100*float64(traced.httpBusy+traced.layerBusy-untracedBusy)/float64(untracedBusy), "%", 0)

	if w.gateway() {
		self := tr.selfUS("gateway.http")
		p50, _ := percentile(self, 0.5)
		p99, _ := percentile(self, 0.99)
		res.set("gateway.self_us_p50", p50, "us", len(self))
		res.set("gateway.self_us_p99", p99, "us", len(self))
		res.set("gateway.upstream_calls_per_req", float64(len(tr.named("server.http")))/float64(len(self)), "calls/req", len(self))
		var total, busiest int64
		for _, u := range traced.gw.Upstreams {
			total += u.Requests
			busiest = max(busiest, u.Requests)
		}
		if total > 0 {
			res.set("gateway.busiest_share", float64(busiest)/float64(total), "fraction", int(total))
		}
		refused := traced.gw.Rejected + traced.gw.Unavailable + traced.gw.BadGateway + int64(traced.refusedAnswers)
		res.set("gateway.refused", float64(refused), "count", 0)
	}
	setP50 := func(metric, span string) {
		d := tr.durationsUS(span)
		if len(d) > 0 {
			res.set(metric, median(d), "us", len(d))
		}
	}
	setP50("api.decode_us", "api.decode")
	setP50("api.resolve_us", "api.resolve")
	setP50("schemelang.hash_us", "schemelang.hash")
	setP50("server.predict_hit_us", "server.predict_hit")
	setP50("server.predict_miss_us", "server.predict_miss")
	setP50("report.encode_us", "report.encode")
	setP50("predict.static_us", "predict.static")
	if len(traced.createUS) > 0 {
		v := median(traced.createUS)
		res.set("fleet.create_us", v, "us", len(traced.createUS))
	}
	setP50("fleet.add_job_us", "fleet.add_job")
	setP50("fleet.delete_job_us", "fleet.delete_job")
	res.set("api.req_bytes", float64(traced.reqBytes)/float64(traced.requests), "bytes", traced.requests)
	res.set("report.resp_bytes", float64(traced.respBytes)/float64(traced.requests), "bytes", traced.requests)
	if n := traced.srvStats.CacheHits + traced.srvStats.CacheMisses; n > 0 {
		res.set("server.cache_hit_ratio", float64(traced.srvStats.CacheHits)/float64(n), "fraction", int(n))
	}
	if len(traced.missOverheadUS) > 0 {
		v := median(traced.missOverheadUS)
		res.set("server.miss_overhead_us", v, "us", len(traced.missOverheadUS))
	}
	if times := tr.durationsUS("predict.times"); len(times) > 0 {
		p50, _ := percentile(times, 0.5)
		p99, _ := percentile(times, 0.99)
		res.set("predict.times_us_p50", p50, "us", len(times))
		res.set("predict.times_us_p99", p99, "us", len(times))
		res.set("predict.evals_per_times", float64(childCount(tr, "predict.times", "model.penalties"))/float64(len(times)), "count", len(times))
		var models []*tracedModel
		for _, m := range traced.models {
			models = append(models, m.(*tracedModel))
		}
		modelSpans(tr, res, models...)
	}
	if pl := tr.durationsUS("fleet.placements"); len(pl) > 0 {
		p50, _ := percentile(pl, 0.5)
		p99, _ := percentile(pl, 0.99)
		res.set("fleet.placements_us_p50", p50, "us", len(pl))
		res.set("fleet.placements_us_p99", p99, "us", len(pl))
		res.set("fleet.candidates_per_ranking", float64(traced.candidates)/float64(traced.placements), "count", traced.placements)
	}
	res.set("runtime.allocs_per_req", float64(again.mem.mallocs)/float64(again.requests), "count", again.requests)
	res.set("runtime.alloc_bytes_per_req", float64(again.mem.bytes)/float64(again.requests), "bytes", again.requests)
	res.set("runtime.gc_cycles", float64(again.mem.gcs), "count", 0)
	zeroAbsent(res, cfg.workload)
	return tr.write(spanFile(cfg))
}

// modelSpans reports the penalty models' mean time per call, the call
// count and the mean active-graph size the decorators saw.
func modelSpans(tr *tracer, res *result, models ...*tracedModel) {
	d := tr.durationsUS("model.penalties")
	res.set("model.penalties_us", mean(d), "us", len(d))
	res.set("model.penalties_calls", float64(len(d)), "count", 0)
	calls, comms := 0, 0
	for _, m := range models {
		calls += m.calls
		comms += m.comms
	}
	if calls > 0 {
		res.set("model.active_comms_mean", float64(comms)/float64(calls), "count", calls)
	}
}

// childCount counts the spans named child whose parent is named parent.
func childCount(tr *tracer, parent, child string) int {
	n := 0
	for _, s := range tr.spans {
		if s.Name == child && s.Parent >= 0 && tr.spans[s.Parent].Name == parent {
			n++
		}
	}
	return n
}

func equalDigests(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// spanFile is where a traced run writes its spans.
func spanFile(cfg runConfig) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
}

// replayPass is one in-process replay of the trace set on both engines.
type replayPass struct {
	busy      time.Duration
	outputs   []float64 // makespans and per-task send times, in order
	mem       memDelta
	transfers int
	model     *tracedModel
	pred, sub *tracedEngine
}

// runReplayPass replays the set once on each engine; traced, the
// engines and the model are decorated and every replay.Run is a span.
func runReplayPass(set []*composite, tr *tracer) (*replayPass, error) {
	p := &replayPass{}
	m := bwshare.GigEModel()
	pred, sub := predictor(m), bwshare.NewGigE()
	if tr != nil {
		p.model = &tracedModel{Model: m, t: tr, name: "model.penalties"}
		p.pred = &tracedEngine{Engine: predictor(p.model), t: tr, prefix: "predict"}
		p.sub = &tracedEngine{Engine: sub, t: tr, prefix: "netsim"}
		pred, sub = p.pred, p.sub
	}
	mem := readMem()
	start := time.Now()
	for _, c := range set {
		for _, e := range []bwshare.Engine{pred, sub} {
			id := tr.begin("replay.run", "")
			r, err := bwshare.Replay(e, c.clu, c.place, c.trace)
			tr.end(id, "")
			if err != nil {
				return nil, err
			}
			p.transfers += r.NetTransfers
			p.outputs = append(append(p.outputs, r.Makespan), r.CommTimes()...)
		}
	}
	p.busy = time.Since(start)
	p.mem = memSince(mem)
	return p, nil
}

// tracedReplay runs the replay pass untraced and traced and reports the
// engine, model and replay layers.
func tracedReplay(cfg runConfig, set []*composite, res *result) error {
	plain, err := runReplayPass(set, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := runReplayPass(set, tr)
	if err != nil {
		return err
	}
	same := len(plain.outputs) == len(traced.outputs)
	for i := 0; same && i < len(plain.outputs); i++ {
		same = plain.outputs[i] == traced.outputs[i]
	}
	if !same {
		res.problem("traced replay gave different results from the untraced replay")
	}
	res.set("bench.trace_overhead_pct", 100*float64(traced.busy-plain.busy)/float64(plain.busy), "%", 0)
	engineSelf := 0.0
	for _, name := range []string{"predict.advance", "predict.start_flow"} {
		for _, us := range tr.selfUS(name) {
			engineSelf += us / 1e6
		}
	}
	res.set("predict.engine_self_s", engineSelf, "s", 0)
	modelSpans(tr, res, traced.model)
	adv := tr.durationsUS("netsim.advance")
	res.set("netsim.advance_us", mean(adv), "us", len(adv))
	res.set("netsim.advance_calls", float64(traced.sub.advances), "count", 0)
	sf := tr.durationsUS("netsim.start_flow")
	res.set("netsim.start_flow_us", mean(sf), "us", len(sf))
	res.set("netsim.completions_per_advance", float64(traced.sub.completions)/float64(traced.sub.advances), "count", traced.sub.advances)
	replaySelf := 0.0
	for _, us := range tr.selfUS("replay.run") {
		replaySelf += us / 1e6
	}
	res.set("replay.self_s", replaySelf, "s", 0)
	res.set("replay.transfers", float64(plain.transfers/2), "count", 0)
	res.set("runtime.allocs_per_req", float64(plain.mem.mallocs)/float64(plain.transfers), "count", plain.transfers)
	res.set("runtime.alloc_bytes_per_req", float64(plain.mem.bytes)/float64(plain.transfers), "bytes", plain.transfers)
	res.set("runtime.gc_cycles", float64(plain.mem.gcs), "count", 0)
	zeroAbsent(res, cfg.workload)
	return tr.write(spanFile(cfg))
}
