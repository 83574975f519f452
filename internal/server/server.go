// Package server implements the worker tier of the bwshare serving
// layer: the paper's penalty models behind a JSON API, backed by a
// bounded worker pool of reusable predict.Sessions and an LRU response
// cache keyed by canonical scheme hash x model x reference rate, plus a
// stateful multi-tenant cluster manager (internal/fleet) with a
// placement engine.
//
// The request/response contract — DTOs, size limits, scheme/topology/
// fault resolution, the strict GET query grammar and the error-to-
// status mapping — lives in internal/api and is shared with the
// gateway tier (internal/gateway), which balances N of these workers
// behind one address by sharding the cache keyspace. This package only
// adds what a worker owns: the pool, the cache, the simulator calls
// and the fleet state.
//
// Endpoints (all under /v1):
//
//	POST /v1/predict        one scheme in (catalog name, scheme text or
//	                        structured comms), per-communication static
//	                        penalties and predicted times out;
//	                        ?format=text renders exactly bwpredict's
//	                        stdout for the same model and scheme
//	GET  /v1/predict        catalog convenience: ?name=s4&model=gige;
//	                        unknown or malformed query keys are rejected
//	POST /v1/predict/batch  up to api.MaxBatch predict requests in one call
//	GET  /v1/models         model registry with reference rates
//	GET  /v1/schemes        built-in scheme catalog
//	GET  /v1/healthz        liveness probe
//	GET  /v1/stats          request, error, cache and cluster counters
//
//	POST   /v1/clusters                         create a named cluster
//	GET    /v1/clusters                         list clusters
//	GET    /v1/clusters/{name}                  cluster with jobs and occupancy
//	DELETE /v1/clusters/{name}                  delete a cluster
//	POST   /v1/clusters/{name}/jobs             admit a job (auto-placed)
//	GET    /v1/clusters/{name}/jobs             list resident jobs
//	GET    /v1/clusters/{name}/jobs/{job}       one resident job
//	DELETE /v1/clusters/{name}/jobs/{job}       evict a job, freeing hosts
//	POST   /v1/clusters/{name}/placements       rank candidate placements
//
// Repeated schemes are served from the cache without touching the
// simulator; the hit path performs zero heap allocations (benchmarked in
// internal/benchsuite).
//
// # Fault schedules
//
// A predict request may degrade its fabric mid-replay with a "faults"
// array (at most api.MaxFaultEvents entries). Each entry is one
// scheduled event:
//
//	{"kind": "link_down",    "switch": 0, "at": 1.5, "until": 3}
//	{"kind": "link_degrade", "switch": 1, "factor": 0.25, "at": 0}
//	{"kind": "host_slow",    "host": 2, "factor": 0.5, "at": 0, "until": 9}
//
// Times are engine seconds; "until" 0 (or absent) means the fault never
// repairs. Link events need a multi-switch "topology" (in the request or
// the scheme text's header) and target an edge switch's uplink; scheme
// text may equivalently declare "fault:" headers (see schemelang), but
// not both. Faulted predictions are cached like healthy ones — the cache
// key includes the schedule — and refuse "static": true, permanent
// total outages, and cluster scheme text with "fault:" headers (the
// cluster owns its fault schedule, set at creation).
//
// # Deadlines
//
// Each request — batch items individually — gets Config.RequestTimeout
// (default DefaultRequestTimeout) to acquire a worker and simulate;
// exceeding it answers 503 with a Retry-After hint, and the abandoned
// worker rejoins the pool only after its simulation finishes, so a slow
// run cannot corrupt a later request's session.
//
// Client mistakes (unknown models, malformed schemes, missing clusters)
// are 4xx with a JSON error envelope; failures of the service itself —
// a recovered simulator panic, a deadline exceeded — are 5xx and
// counted separately in /v1/stats.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"bwshare/internal/api"
	"bwshare/internal/core"
	"bwshare/internal/fault"
	"bwshare/internal/fleet"
	"bwshare/internal/graph"
	"bwshare/internal/predict"
	"bwshare/internal/report"
	"bwshare/internal/schemelang"
	"bwshare/internal/schemes"
	"bwshare/internal/topology"
)

// DefaultRequestTimeout is the per-request simulation deadline when the
// Config leaves it zero.
const DefaultRequestTimeout = 30 * time.Second

// Config sizes the service.
type Config struct {
	// Workers bounds how many predictions run concurrently; each worker
	// owns reusable per-model simulator sessions. Default GOMAXPROCS.
	Workers int
	// CacheSize is the LRU response-cache capacity in entries. 0 picks
	// the default (1024); negative disables caching.
	CacheSize int
	// RequestTimeout bounds one prediction from worker acquisition to
	// simulation finish; a request that cannot finish in time is
	// answered 503. 0 picks DefaultRequestTimeout; negative disables
	// the deadline.
	RequestTimeout time.Duration
}

// Server is the HTTP prediction service. Create with New.
type Server struct {
	cfg      Config
	canon    map[string]string // accepted model name -> canonical name
	models   map[string]core.Model
	refs     map[string]float64 // canonical name -> substrate reference rate
	pool     chan *worker
	cache    *lru
	clusters *fleet.Manager
	mux      *http.ServeMux

	requests       atomic.Int64 // one per predict request, batch *item*, or other call
	batchItems     atomic.Int64 // batch items alone (subset of requests)
	clientErrors   atomic.Int64 // 4xx: the request was at fault
	internalErrors atomic.Int64 // 5xx: the service was at fault
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
}

// statusFor translates an error from the predict or fleet layers into
// the HTTP status the client should see: the worker tier layers the
// fleet-error mapping on top of the shared api mapping.
func statusFor(err error) int {
	switch {
	case errors.Is(err, fleet.ErrInternal):
		return http.StatusInternalServerError
	case errors.Is(err, fleet.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, fleet.ErrExists) || errors.Is(err, fleet.ErrCapacity):
		return http.StatusConflict
	default:
		return api.StatusFor(err)
	}
}

// worker holds the per-model prediction sessions of one pool slot. A
// worker is owned by at most one request at a time, so its sessions'
// scratch reuse is race-free.
type worker struct {
	sessions map[string]*predict.Session // by canonical model name
}

// session returns the worker's session for the canonical model name,
// building it from spec on first use. Only sessions at the substrate's
// default rate on the healthy crossbar are cached (compute builds
// throwaway sessions for the rest), so the name alone is the key.
func (w *worker) session(name string, spec predict.Spec) (*predict.Session, error) {
	s := w.sessions[name]
	if s == nil {
		var err error
		if s, err = predict.New(spec); err != nil {
			return nil, err
		}
		w.sessions[name] = s
	}
	return s, nil
}

// New builds a Server. The model registry is fixed at construction: every
// name accepted by predict.LookupModel is served.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 1024
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	s := &Server{
		cfg:      cfg,
		canon:    make(map[string]string),
		models:   make(map[string]core.Model),
		refs:     make(map[string]float64),
		pool:     make(chan *worker, cfg.Workers),
		cache:    newLRU(cfg.CacheSize),
		clusters: fleet.NewManager(),
		mux:      http.NewServeMux(),
	}
	for _, name := range predict.ModelNames() {
		m, sub, err := predict.LookupModel(name)
		if err != nil {
			panic("server: registry: " + err.Error())
		}
		s.canon[name] = name
		s.models[name] = m
		s.refs[name] = sub.RefRate()
	}
	s.canon["ib"] = "infiniband"
	for i := 0; i < cfg.Workers; i++ {
		s.pool <- &worker{sessions: make(map[string]*predict.Session)}
	}
	s.routes()
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Result is the outcome of one prediction. Penalties and Times are
// indexed by graph.CommID and may be shared with the response cache:
// callers must not mutate them.
type Result struct {
	Model     string // canonical model name
	RefRate   float64
	Penalties []float64
	Times     []float64
	Cached    bool
}

// Predict computes (or serves from cache) the prediction for g under the
// named model on the given fabric (the zero Spec is the paper's single
// crossbar), with the fault schedule applied mid-replay (the zero
// Schedule is the healthy fabric). refOverride, when positive, replaces
// the substrate's default reference rate. ctx bounds the whole
// computation: expiry — waiting for a worker or mid-simulation — yields
// an api.ErrTimeout-wrapped error (HTTP 503). g is keyed by an api.Key
// as a request for it is, so in-process calls and HTTP requests share
// cache entries. The cache-hit path allocates nothing.
func (s *Server) Predict(ctx context.Context, g *graph.Graph, modelName string, static bool, refOverride float64, topo topology.Spec, sched fault.Schedule) (Result, error) {
	name, ref, err := s.modelRate(modelName, refOverride)
	if err != nil {
		return Result{}, err
	}
	var k api.Key
	k.SetGraph(g, topo, sched)
	key := cacheKey{hash: k.Scheme, model: name, static: static, ref: ref, topo: topo, faults: sched.Hash()}
	if e := s.cache.get(key, &k); e != nil {
		return s.hit(e), nil
	}
	return s.miss(ctx, key, &k, g)
}

// modelRate resolves a model name to its canonical name and a rate
// override to the rate the prediction runs at.
func (s *Server) modelRate(modelName string, refOverride float64) (string, float64, error) {
	name, ok := s.canon[modelName]
	if !ok {
		return "", 0, fmt.Errorf("unknown model %q (see /v1/models)", modelName)
	}
	if !core.ValidRefRate(refOverride) {
		return "", 0, fmt.Errorf("ref_rate must be a positive finite rate in bytes/second, got %g", refOverride)
	}
	if refOverride == 0 {
		return name, s.refs[name], nil
	}
	return name, refOverride, nil
}

// hit answers from a cache entry.
func (s *Server) hit(e *entry) Result {
	s.cacheHits.Add(1)
	return Result{Model: e.key.model, RefRate: e.key.ref, Penalties: e.pen, Times: e.times, Cached: true}
}

// miss runs the simulator on g, the graph of k, and caches the answer
// under key.
func (s *Server) miss(ctx context.Context, key cacheKey, k *api.Key, g *graph.Graph) (Result, error) {
	s.cacheMisses.Add(1)
	pen, times, err := s.compute(ctx, g, key.model, key.static, key.ref, key.topo, k.Sched)
	if err != nil {
		return Result{}, err
	}
	s.cache.put(&entry{key: key, g: g, sched: k.Sched.Clone(), pen: pen, times: times})
	return Result{Model: key.model, RefRate: key.ref, Penalties: pen, Times: times, Cached: false}, nil
}

// compute runs the simulator on a pooled worker under the request
// context. The simulation itself runs in a goroutine so a wedged or
// slow engine cannot hold the request past its deadline; the worker
// goes back to the pool only when the simulation actually finishes (an
// abandoned slot must not be handed to another request mid-run). An
// engine panic on a degenerate scheme is converted to an
// api.ErrInternal-wrapped error so the HTTP layer answers 500, not 400: a
// panic is the service failing, not the client.
func (s *Server) compute(ctx context.Context, g *graph.Graph, name string, static bool, ref float64, topo topology.Spec, sched fault.Schedule) ([]float64, []float64, error) {
	var w *worker
	select {
	case w = <-s.pool:
	case <-ctx.Done():
		return nil, nil, fmt.Errorf("no prediction worker available: %w", api.ErrTimeout)
	}
	type outcome struct {
		pen, times []float64
		err        error
	}
	ch := make(chan outcome, 1) // buffered: an abandoned run must not leak
	go func() {
		var out outcome
		defer func() {
			if r := recover(); r != nil {
				out = outcome{err: fmt.Errorf("prediction failed: %v: %w", r, api.ErrInternal)}
			}
			ch <- out
			s.pool <- w
		}()
		// Sessions are cached per model only at the substrate's default
		// reference rate, the trivial topology and the healthy fabric; a
		// request-supplied ref_rate, fabric or fault schedule gets a
		// throwaway session so clients cannot grow the per-worker session
		// map without bound by sweeping rates, topologies or schedules.
		spec := predict.Spec{Model: s.models[name], Ref: ref, Topo: topo, Faults: sched}
		var sess *predict.Session
		var err error
		if ref == s.refs[name] && topo.Trivial() && sched.Empty() {
			sess, err = w.session(name, spec)
		} else {
			sess, err = predict.New(spec)
		}
		if err != nil {
			out = outcome{err: err}
			return
		}
		out.pen = sess.StaticPenalties(g)
		if static {
			out.times = sess.StaticTimes(g)
		} else {
			out.times = sess.Times(g)
		}
		out.times = append([]float64(nil), out.times...) // session scratch: copy out
	}()
	select {
	case out := <-ch:
		return out.pen, out.times, out.err
	case <-ctx.Done():
		return nil, nil, fmt.Errorf("simulation exceeded the request deadline: %w", api.ErrTimeout)
	}
}

// requestCtx derives the per-prediction deadline from the configured
// request timeout.
func (s *Server) requestCtx(parent context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout < 0 {
		return parent, func() {}
	}
	return context.WithTimeout(parent, s.cfg.RequestTimeout)
}

// Model returns the registered model for a canonical name (nil if
// unknown).
func (s *Server) Model(name string) core.Model { return s.models[name] }

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/predict", s.handlePredictPost)
	s.mux.HandleFunc("GET /v1/predict", s.handlePredictGet)
	s.mux.HandleFunc("POST /v1/predict/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("GET /v1/schemes", s.handleSchemes)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)

	s.mux.HandleFunc("POST /v1/clusters", s.handleClusterCreate)
	s.mux.HandleFunc("GET /v1/clusters", s.handleClusterList)
	s.mux.HandleFunc("GET /v1/clusters/{name}", s.handleClusterGet)
	s.mux.HandleFunc("DELETE /v1/clusters/{name}", s.handleClusterDelete)
	s.mux.HandleFunc("POST /v1/clusters/{name}/jobs", s.handleJobCreate)
	s.mux.HandleFunc("GET /v1/clusters/{name}/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/clusters/{name}/jobs/{job}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/clusters/{name}/jobs/{job}", s.handleJobDelete)
	s.mux.HandleFunc("POST /v1/clusters/{name}/placements", s.handlePlacements)
}

func (s *Server) handlePredictPost(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req api.PredictRequest
	if err := api.DecodeBody(http.MaxBytesReader(w, r.Body, api.MaxBodyBytes), &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	s.servePredict(w, r, &req)
}

// handlePredictGet is the catalog convenience form; the strict query
// grammar lives in api.ParsePredictQuery (shared with the gateway's
// shard-key parser).
func (s *Server) handlePredictGet(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	req, _, err := api.ParsePredictQuery(r.URL.Query())
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.servePredict(w, r, &req)
}

// servePredict resolves the scheme, predicts, and renders either JSON or
// (format=text) the exact bwpredict stdout for the same model and flags.
// Predictions on a fabric additionally carry the per-uplink utilization.
func (s *Server) servePredict(w http.ResponseWriter, r *http.Request, req *api.PredictRequest) {
	ctx, cancel := s.requestCtx(r.Context())
	defer cancel()
	k := api.NewKey()
	defer k.Free()
	g, topo, res, err := s.predictRequest(ctx, k, req)
	if err != nil {
		s.writeError(w, statusFor(err), err.Error())
		return
	}
	if r.URL.Query().Get("format") == "text" {
		body := api.NewBody()
		report.PredictionText(body, s.models[res.Model].Name(), !req.Static, res.RefRate, g, res.Penalties, res.Times, nil)
		if !topo.Trivial() {
			report.LinkUtilText(body, topo, report.BuildLinkUtil(topo, g, res.Times, res.RefRate))
		}
		body.Send(w, http.StatusOK, "text/plain; charset=utf-8")
		return
	}
	s.writeJSON(w, http.StatusOK, s.buildPrediction(req, g, topo, res))
}

// buildPrediction assembles the JSON document for one predicted scheme.
func (s *Server) buildPrediction(req *api.PredictRequest, g *graph.Graph, topo topology.Spec, res Result) report.Prediction {
	p := report.BuildPrediction(s.models[res.Model].Name(), !req.Static, res.RefRate, g, res.Penalties, res.Times)
	p.Cached = res.Cached
	if !topo.Trivial() {
		p.Topology = topo.String()
		p.Links = report.BuildLinkUtil(topo, g, res.Times, res.RefRate)
	}
	return p
}

// handleBatch runs up to api.MaxBatch predictions in one call. Each item
// counts as one request in /v1/stats (and in batch_items), so the
// errors <= requests invariant survives batches where every item fails;
// a rejected envelope (malformed body, empty or oversized batch) counts
// as a single request.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchRequest
	if err := api.DecodeBody(http.MaxBytesReader(w, r.Body, api.MaxBodyBytes), &req); err != nil {
		s.requests.Add(1)
		s.writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(req.Requests) == 0 {
		s.requests.Add(1)
		s.writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Requests) > api.MaxBatch {
		s.requests.Add(1)
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d exceeds limit %d", len(req.Requests), api.MaxBatch))
		return
	}
	s.requests.Add(int64(len(req.Requests)))
	s.batchItems.Add(int64(len(req.Requests)))
	// An item is a prediction, or an embedded error when its Status is set.
	type result struct {
		doc report.Prediction
		err api.ErrorBody
	}
	results := make([]result, len(req.Requests))
	k := api.NewKey()
	defer k.Free()
	for i := range req.Requests {
		one := &req.Requests[i]
		// Each item gets its own deadline: one slow simulation must not
		// starve the remainder of the batch of its full budget.
		ctx, cancel := s.requestCtx(r.Context())
		g, topo, res, err := s.predictRequest(ctx, k, one)
		cancel()
		if err != nil {
			code := statusFor(err)
			s.countError(code)
			results[i].err = api.ErrorBody{Error: err.Error(), Status: code}
			continue
		}
		results[i].doc = s.buildPrediction(one, g, topo, res)
	}
	err := api.WriteResults(w, len(results), func(b []byte, i int, prefix string) ([]byte, error) {
		if results[i].err.Status != 0 {
			return api.AppendIndented(b, results[i].err, prefix)
		}
		return results[i].doc.AppendJSON(b, prefix)
	})
	if err != nil {
		s.internalErrors.Add(1)
	}
}

// predictRequest resolves a request to its key (k, reused) and answers
// it, building a graph only on a cache miss; a hit is answered from the
// entry's own graph. A request the key or the graph build rejects, or
// whose model or rate is invalid, is answered by resolveAndPredict
// instead, so the client sees the error the full resolution reports
// first.
func (s *Server) predictRequest(ctx context.Context, k *api.Key, req *api.PredictRequest) (*graph.Graph, topology.Spec, Result, error) {
	if k.Resolve(req) != nil {
		return s.resolveAndPredict(ctx, req)
	}
	name, ref, err := s.modelRate(k.Model, req.RefRate)
	if err != nil {
		return s.resolveAndPredict(ctx, req)
	}
	key := cacheKey{hash: k.Scheme, model: name, static: req.Static, ref: ref, topo: k.Topo, faults: k.Sched.Hash()}
	if e := s.cache.get(key, k); e != nil {
		return e.g, k.Topo, s.hit(e), nil
	}
	g, err := k.Graph()
	if err != nil {
		return s.resolveAndPredict(ctx, req)
	}
	res, err := s.miss(ctx, key, k, g)
	if err != nil {
		return nil, k.Topo, Result{}, err
	}
	return g, k.Topo, res, nil
}

// resolveAndPredict turns a request into a graph, fabric and fault
// schedule with api.ResolveGraph and runs Predict: the reference path,
// taken for the requests predictRequest finds at fault.
func (s *Server) resolveAndPredict(ctx context.Context, req *api.PredictRequest) (*graph.Graph, topology.Spec, Result, error) {
	g, topo, sched, err := api.ResolveGraph(*req)
	if err != nil {
		return nil, topo, Result{}, err
	}
	res, err := s.Predict(ctx, g, api.CanonicalModel(req.Model), req.Static, req.RefRate, topo, sched)
	if err != nil {
		return nil, topo, Result{}, err
	}
	return g, topo, res, nil
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	type modelInfo struct {
		Name    string  `json:"name"`
		RefRate float64 `json:"ref_rate_bytes_per_s"`
	}
	out := make([]modelInfo, 0, len(s.refs))
	for _, name := range predict.ModelNames() {
		out = append(out, modelInfo{Name: name, RefRate: s.refs[name]})
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"models": out})
}

func (s *Server) handleSchemes(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	type schemeInfo struct {
		Name   string `json:"name"`
		Comms  int    `json:"comms"`
		Nodes  int    `json:"nodes"`
		Scheme string `json:"scheme"`
	}
	names := schemes.Names()
	out := make([]schemeInfo, 0, len(names))
	for _, name := range names {
		g, _ := schemes.Named(name)
		out = append(out, schemeInfo{
			Name:   name,
			Comms:  g.Len(),
			Nodes:  g.NumNodes(),
			Scheme: schemelang.Canonical(g),
		})
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"schemes": out})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Stats is the /v1/stats document. Requests counts predict calls,
// batch *items* and catalog/stats calls alike, so Errors (client +
// internal) can never exceed it; BatchItems is the batch-borne subset
// of Requests.
type Stats struct {
	Requests       int64 `json:"requests"`
	BatchItems     int64 `json:"batch_items"`
	Errors         int64 `json:"errors"`
	ClientErrors   int64 `json:"client_errors"`
	InternalErrors int64 `json:"internal_errors"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEntries   int   `json:"cache_entries"`
	CacheCapacity  int   `json:"cache_capacity"`
	Workers        int   `json:"workers"`
	Clusters       int   `json:"clusters"`
}

// Snapshot returns the current counters.
func (s *Server) Snapshot() Stats {
	client, internal := s.clientErrors.Load(), s.internalErrors.Load()
	return Stats{
		Requests:       s.requests.Load(),
		BatchItems:     s.batchItems.Load(),
		Errors:         client + internal,
		ClientErrors:   client,
		InternalErrors: internal,
		CacheHits:      s.cacheHits.Load(),
		CacheMisses:    s.cacheMisses.Load(),
		CacheEntries:   s.cache.len(),
		CacheCapacity:  max(s.cfg.CacheSize, 0),
		Workers:        s.cfg.Workers,
		Clusters:       s.clusters.Len(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.writeJSON(w, http.StatusOK, s.Snapshot())
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	if api.WriteJSON(w, code, v) != nil {
		s.internalErrors.Add(1)
	}
}

// countError attributes one failed request to the client or the
// service by status code.
func (s *Server) countError(code int) {
	if code >= http.StatusInternalServerError {
		s.internalErrors.Add(1)
	} else {
		s.clientErrors.Add(1)
	}
}

// writeError answers with the shared error envelope. Overload answers
// (503: worker-pool saturation or a request deadline) carry a
// Retry-After hint — the same helper the gateway tier uses for its
// admission-control 429s — so well-behaved clients back off instead of
// hammering a saturated pool.
func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	s.countError(code)
	if code == http.StatusServiceUnavailable {
		api.SetRetryAfter(w.Header(), api.DefaultRetryAfter)
	}
	api.WriteError(w, code, msg)
}
