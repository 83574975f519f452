// Package gateway implements the routing tier of the bwshare serving
// layer: one address in front of N worker replicas (internal/server),
// sharding the prediction-cache keyspace across them with weighted
// rendezvous hashing so the fleet's effective cache is the union of the
// replicas' LRUs, and pinning each named cluster's stateful session to
// a single replica.
//
// The contract is strict: every response through the gateway is
// byte-identical to hitting a worker directly. The gateway therefore
// never rewrites or answers application requests itself — a request it
// cannot parse is still forwarded (routed by a raw-bytes key) so the
// worker produces the identical 400 — and the only statuses it
// originates are its own semantics: 429 (admission control, with
// Retry-After), 503 (no healthy upstream, with Retry-After) and 502 (an
// upstream died mid-request).
//
// Routing rules:
//
//   - /v1/predict (GET and POST) shards by the worker's cache-line key
//     (scheme x model x static x ref x fabric x faults; see shardkey.go),
//     so repeats of a scheme always hit the replica that computed it.
//   - /v1/predict/batch is decomposed per item: items are grouped by
//     shard key, each group is sent to its home replica as a sub-batch,
//     and the per-item results are reassembled in request order. The
//     merged document is byte-identical to a single worker's answer.
//   - /v1/clusters and everything below it shards by cluster name
//     (session affinity); the nameless list endpoint GET /v1/clusters
//     lands on one stable replica and reports only the clusters that
//     replica owns — a documented fleet limitation.
//   - Everything else (/v1/models, /v1/schemes, /v1/healthz, /v1/stats)
//     routes by path hash; /v1/stats is likewise per-replica.
//
// Upstream health: replicas are probed on /v1/healthz (active loop,
// Config.HealthInterval) and ejected passively the moment a proxied
// request fails at the transport; an ejected replica's keys fall
// through to their rendezvous runner-up, and exactly those keys return
// when the replica passes a probe again. Idempotent GETs that hit a
// dying replica are retried at most once, on the key's next healthy
// choice. Admission control bounds the in-flight requests per upstream
// (Config.MaxInFlight); saturation answers 429 with the same
// Retry-After helper the worker tier uses for its overload 503s.
package gateway

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bwshare/internal/api"
)

// DefaultHealthInterval paces the active health-probe loop when the
// Config leaves it zero.
const DefaultHealthInterval = 5 * time.Second

// Upstream names one worker replica.
type Upstream struct {
	// Name is the replica's stable identity — the rendezvous hash input.
	// Keys shard by name, not by URL, so a replica can move (new port,
	// new host) without cold-starting its share of the keyspace. Default:
	// the URL.
	Name string
	// URL is the replica's base address, e.g. "http://10.0.0.7:8100".
	URL string
	// Weight scales the replica's share of the keyspace; default 1.
	Weight float64
}

// Config sizes the gateway.
type Config struct {
	// Upstreams is the worker fleet; at least one entry.
	Upstreams []Upstream
	// MaxInFlight bounds concurrently proxied requests per upstream;
	// beyond it the gateway answers 429 + Retry-After rather than
	// spilling the key to a colder replica. 0 means unbounded.
	MaxInFlight int
	// HealthInterval paces the active probe loop; 0 picks
	// DefaultHealthInterval, negative disables the loop (tests drive
	// probes with ProbeNow).
	HealthInterval time.Duration
	// RetryAfter is the hint on 429/503 answers; 0 picks
	// api.DefaultRetryAfter.
	RetryAfter time.Duration
	// Client issues the proxied requests; the default is an http.Client
	// whose transport keeps enough idle connections per upstream for a
	// proxy's concurrency (http.DefaultTransport's MaxIdleConnsPerHost
	// of 2 closes all but two upstream connections after each burst, and
	// the re-dials dominate the proxy hop under load).
	Client *http.Client
}

// upstream is the runtime state of one replica.
type upstream struct {
	name     string
	base     *url.URL
	weight   float64
	healthy  atomic.Bool
	inflight atomic.Int64
	requests atomic.Int64 // proxied requests answered by this replica
	errors   atomic.Int64 // transport failures (each ejects the replica)
}

// Gateway is the routing tier. Create with New; it implements
// http.Handler.
type Gateway struct {
	cfg        Config
	ups        []*upstream
	names      []string
	weights    []float64
	client     *http.Client
	retryAfter time.Duration

	requests    atomic.Int64 // every request entering the gateway
	rejected    atomic.Int64 // 429: admission control
	unavailable atomic.Int64 // 503: no healthy upstream
	retries     atomic.Int64 // GET failovers attempted
	badGateway  atomic.Int64 // 502: upstream died mid-request

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a Gateway and starts its health loop (unless disabled).
// Upstreams begin optimistically healthy: the first probe or the first
// failed request corrects that within one cycle, and a gateway that
// boots before its fleet must not reject the requests racing the first
// probe.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Upstreams) == 0 {
		return nil, fmt.Errorf("gateway: at least one upstream is required")
	}
	g := &Gateway{
		cfg:        cfg,
		client:     cfg.Client,
		retryAfter: cfg.RetryAfter,
		stop:       make(chan struct{}),
	}
	if g.client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 1024
		tr.MaxIdleConnsPerHost = 256
		g.client = &http.Client{Transport: tr}
	}
	if g.retryAfter <= 0 {
		g.retryAfter = api.DefaultRetryAfter
	}
	seen := make(map[string]bool, len(cfg.Upstreams))
	for i, u := range cfg.Upstreams {
		base, err := url.Parse(u.URL)
		if err != nil || base.Scheme == "" || base.Host == "" {
			return nil, fmt.Errorf("gateway: upstream %d: %q is not an absolute URL", i, u.URL)
		}
		name := u.Name
		if name == "" {
			name = u.URL
		}
		if seen[name] {
			return nil, fmt.Errorf("gateway: duplicate upstream name %q", name)
		}
		seen[name] = true
		weight := u.Weight
		if weight == 0 {
			weight = 1
		}
		if weight < 0 {
			return nil, fmt.Errorf("gateway: upstream %q: negative weight %g", name, weight)
		}
		up := &upstream{name: name, base: base, weight: weight}
		up.healthy.Store(true)
		g.ups = append(g.ups, up)
		g.names = append(g.names, name)
		g.weights = append(g.weights, weight)
	}
	interval := cfg.HealthInterval
	if interval == 0 {
		interval = DefaultHealthInterval
	}
	if interval > 0 {
		g.wg.Add(1)
		go g.healthLoop(interval)
	}
	return g, nil
}

// Close stops the health loop. The gateway keeps serving (with passive
// ejection only); Close exists so tests and main can shut down cleanly.
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g }

// healthLoop actively probes the fleet until Close.
func (g *Gateway) healthLoop(interval time.Duration) {
	defer g.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			g.ProbeNow()
		case <-g.stop:
			return
		}
	}
}

// ProbeNow synchronously probes every upstream's /v1/healthz once and
// updates its health state: the way an ejected replica rejoins the
// fleet (and reclaims exactly its old keys), and the way tests drive
// eject/re-add deterministically.
func (g *Gateway) ProbeNow() {
	var wg sync.WaitGroup
	for _, up := range g.ups {
		wg.Add(1)
		go func(up *upstream) {
			defer wg.Done()
			up.healthy.Store(g.probe(up))
		}(up)
	}
	wg.Wait()
}

func (g *Gateway) probe(up *upstream) bool {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, up.base.JoinPath("/v1/healthz").String(), nil)
	if err != nil {
		return false
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// healthyOrder ranks the currently healthy upstreams for key:
// element 0 is the key's home, element 1 the single failover a dying
// GET may be retried on.
func (g *Gateway) healthyOrder(key uint64) []*upstream {
	rank := rendezvousRank(key, g.names, g.weights)
	order := make([]*upstream, 0, len(rank))
	for _, i := range rank {
		if g.ups[i].healthy.Load() && g.ups[i].weight > 0 {
			order = append(order, g.ups[i])
		}
	}
	return order
}

// ServeHTTP routes one request.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	if r.URL.Path == "/v1/gateway/stats" && r.Method == http.MethodGet {
		api.WriteJSON(w, http.StatusOK, g.Snapshot())
		return
	}
	// Proxying re-issues the request, so the body is read up front. The
	// read is capped just past the worker tier's body bound: a worker
	// rejects an oversized body at exactly api.MaxBodyBytes however much
	// more follows, so forwarding limit+1 bytes reproduces its 400
	// byte-for-byte without buffering an unbounded stream.
	var body []byte
	if r.Body != nil {
		var err error
		body, err = io.ReadAll(io.LimitReader(r.Body, api.MaxBodyBytes+1))
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, "gateway: reading request body: "+err.Error())
			return
		}
	}
	if r.Method == http.MethodPost && r.URL.Path == "/v1/predict/batch" {
		g.serveBatch(w, r, body)
		return
	}
	g.forward(w, r, g.shardKey(r, body), body)
}

// shardKey picks the routing key for a non-batch request. Unparseable
// requests never get rejected here — they key on their raw bytes and
// flow to a worker that produces the identical error.
func (g *Gateway) shardKey(r *http.Request, body []byte) uint64 {
	path := r.URL.Path
	switch {
	case path == "/v1/predict":
		var req api.PredictRequest
		var err error
		if r.Method == http.MethodGet {
			req, _, err = api.ParsePredictQuery(r.URL.Query())
		} else {
			err = api.DecodeJSON(body, &req)
		}
		if err == nil {
			k := api.NewKey()
			key, ok := predictShardKey(k, &req)
			k.Free()
			if ok {
				return key
			}
		}
		if r.Method == http.MethodGet {
			return hashString(r.URL.Path + "?" + r.URL.RawQuery)
		}
		return hashBytes(body)
	case path == "/v1/clusters":
		if r.Method == http.MethodPost {
			var req api.ClusterRequest
			if api.DecodeJSON(body, &req) == nil && req.Name != "" {
				return clusterShardKey(req.Name)
			}
			return hashBytes(body)
		}
		// The nameless list: one stable replica (documented limitation).
		return hashString(path)
	default:
		if rest, ok := strings.CutPrefix(path, "/v1/clusters/"); ok {
			name, _, _ := strings.Cut(rest, "/")
			return clusterShardKey(name)
		}
		return hashString(path)
	}
}

// forward proxies one request to key's healthy home upstream, retrying
// an idempotent GET at most once on the key's next healthy choice if
// the home dies at the transport.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, key uint64, body []byte) {
	order := g.healthyOrder(key)
	if len(order) == 0 {
		g.noHealthy(w)
		return
	}
	up := order[0]
	if !g.admit(up) {
		g.reject(w, up)
		return
	}
	resp, raw, err := g.proxyTo(up, r, body)
	g.release(up)
	if err != nil {
		g.eject(up)
		if r.Method == http.MethodGet && len(order) > 1 {
			g.retries.Add(1)
			next := order[1]
			if !g.admit(next) {
				g.reject(w, next)
				return
			}
			resp, raw, err = g.proxyTo(next, r, body)
			g.release(next)
			if err != nil {
				g.eject(next)
				g.upstreamDied(w, next, err)
				return
			}
			g.copyResponse(w, resp, raw)
			return
		}
		g.upstreamDied(w, up, err)
		return
	}
	g.copyResponse(w, resp, raw)
}

// serveBatch decomposes a batch by per-item shard key, proxies each
// group to its home replica as a sub-batch, and reassembles the items
// in request order. A batch any worker would reject at the envelope
// (malformed JSON, empty, oversized) is forwarded whole by raw-bytes
// key instead — the rejection must come from a worker, byte-identical.
func (g *Gateway) serveBatch(w http.ResponseWriter, r *http.Request, body []byte) {
	var req api.BatchRequest
	raw, err := api.DecodeBatch(body, &req)
	if err != nil || len(req.Requests) == 0 || len(req.Requests) > api.MaxBatch {
		g.forward(w, r, hashBytes(body), body)
		return
	}
	order := make([]*upstream, 0, 2)    // distinct home replicas, first-use order
	groups := make(map[*upstream][]int) // home replica -> item positions (ascending)
	var firstKey uint64
	k := api.NewKey()
	defer k.Free()
	for i := range req.Requests {
		key := itemShardKey(k, &req.Requests[i], raw[i])
		if i == 0 {
			firstKey = key
		}
		homes := g.healthyOrder(key)
		if len(homes) == 0 {
			g.noHealthy(w)
			return
		}
		up := homes[0]
		if _, ok := groups[up]; !ok {
			order = append(order, up)
		}
		groups[up] = append(groups[up], i)
	}
	if len(order) == 1 {
		// Whole batch homes on one replica: plain proxy, verbatim bytes.
		g.forward(w, r, firstKey, body)
		return
	}
	// Each worker renders its sub-batch with api.WriteResults, so its
	// items are already laid out as they sit in the merged document;
	// splicing them back through WriteResults in request order makes the
	// answer byte-identical to a single worker answering the whole batch.
	// A sub-batch joins its items' own bytes (DecodeBatch), which decode
	// to the very items of the request.
	merged := make([][]byte, len(req.Requests))
	var items [][]byte
	for _, up := range order {
		positions := groups[up]
		// A fresh buffer per sub-batch: the transport may still hold the
		// last one after its answer arrives.
		n := len(`{"requests":[]}`) + len(positions)
		for _, pos := range positions {
			n += len(raw[pos])
		}
		subBody := append(make([]byte, 0, n), `{"requests":[`...)
		for j, pos := range positions {
			if j > 0 {
				subBody = append(subBody, ',')
			}
			subBody = append(subBody, raw[pos]...)
		}
		subBody = append(subBody, "]}"...)
		if !g.admit(up) {
			g.reject(w, up)
			return
		}
		resp, answer, err := g.proxyTo(up, r, subBody)
		g.release(up)
		if err != nil {
			g.eject(up)
			g.upstreamDied(w, up, err)
			return
		}
		if resp.StatusCode != http.StatusOK {
			// A well-formed sub-batch always answers 200 (item errors are
			// embedded); anything else is relayed verbatim.
			g.copyResponse(w, resp, answer)
			return
		}
		var ok bool
		if items, ok = api.ResultItems(answer, items[:0]); !ok || len(items) != len(positions) {
			g.badGateway.Add(1)
			api.WriteError(w, http.StatusBadGateway, fmt.Sprintf("gateway: upstream %q answered a malformed batch document", up.name))
			return
		}
		for j, pos := range positions {
			merged[pos] = items[j]
		}
	}
	api.WriteResults(w, len(merged), func(b []byte, i int, _ string) ([]byte, error) {
		return append(b, merged[i]...), nil
	})
}

// admit reserves an in-flight slot on up, or reports saturation.
func (g *Gateway) admit(up *upstream) bool {
	if g.cfg.MaxInFlight <= 0 {
		up.inflight.Add(1)
		return true
	}
	if up.inflight.Add(1) > int64(g.cfg.MaxInFlight) {
		up.inflight.Add(-1)
		return false
	}
	return true
}

func (g *Gateway) release(up *upstream) { up.inflight.Add(-1) }

// eject marks an upstream unhealthy after a transport failure; only a
// passed health probe re-adds it.
func (g *Gateway) eject(up *upstream) {
	up.errors.Add(1)
	up.healthy.Store(false)
}

// maxPresizedAnswer bounds the buffer proxyTo sizes from an upstream's
// Content-Length before reading a byte; a larger answer grows as read.
const maxPresizedAnswer = 16 << 20

// proxyTo re-issues the request against one upstream and reads the full
// answer. The response body is returned separately so callers can relay
// or parse it.
func (g *Gateway) proxyTo(up *upstream, r *http.Request, body []byte) (*http.Response, []byte, error) {
	target := up.base.JoinPath(r.URL.Path)
	target.RawQuery = r.URL.RawQuery
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target.String(), bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	// Workers frame every answer with Content-Length, so one allocation
	// usually holds it; the MinRead slack lets ReadFrom see EOF without
	// growing. A HEAD answer declares a length but has no body.
	var buf bytes.Buffer
	buf.Grow(int(min(max(resp.ContentLength, 0), maxPresizedAnswer)) + bytes.MinRead)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, nil, err
	}
	raw := buf.Bytes()
	up.requests.Add(1)
	return resp, raw, nil
}

// copyResponse relays an upstream answer verbatim: status, the headers
// the worker tier sets, and the exact body bytes.
func (g *Gateway) copyResponse(w http.ResponseWriter, resp *http.Response, raw []byte) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	n := int64(len(raw))
	if resp.Request.Method == http.MethodHead {
		// No body came back; relay the length the worker declared.
		n = resp.ContentLength
	}
	if n >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(raw)
}

func (g *Gateway) reject(w http.ResponseWriter, up *upstream) {
	g.rejected.Add(1)
	api.SetRetryAfter(w.Header(), g.retryAfter)
	api.WriteError(w, http.StatusTooManyRequests,
		fmt.Sprintf("gateway: upstream %q is at its in-flight limit (%d); retry shortly", up.name, g.cfg.MaxInFlight))
}

func (g *Gateway) noHealthy(w http.ResponseWriter) {
	g.unavailable.Add(1)
	api.SetRetryAfter(w.Header(), g.retryAfter)
	api.WriteError(w, http.StatusServiceUnavailable, "gateway: no healthy upstream")
}

func (g *Gateway) upstreamDied(w http.ResponseWriter, up *upstream, err error) {
	g.badGateway.Add(1)
	api.WriteError(w, http.StatusBadGateway,
		fmt.Sprintf("gateway: upstream %q failed: %v", up.name, err))
}

// UpstreamStats is one replica's slice of the /v1/gateway/stats
// document.
type UpstreamStats struct {
	Name     string  `json:"name"`
	URL      string  `json:"url"`
	Weight   float64 `json:"weight"`
	Healthy  bool    `json:"healthy"`
	InFlight int64   `json:"in_flight"`
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
}

// Stats is the /v1/gateway/stats document: the gateway's own counters
// plus the per-upstream routing split (the load harness reports it as
// the fleet line).
type Stats struct {
	Requests    int64           `json:"requests"`
	Rejected    int64           `json:"rejected"`
	Unavailable int64           `json:"unavailable"`
	Retries     int64           `json:"retries"`
	BadGateway  int64           `json:"bad_gateway"`
	Upstreams   []UpstreamStats `json:"upstreams"`
}

// Snapshot returns the current counters.
func (g *Gateway) Snapshot() Stats {
	s := Stats{
		Requests:    g.requests.Load(),
		Rejected:    g.rejected.Load(),
		Unavailable: g.unavailable.Load(),
		Retries:     g.retries.Load(),
		BadGateway:  g.badGateway.Load(),
		Upstreams:   make([]UpstreamStats, len(g.ups)),
	}
	for i, up := range g.ups {
		s.Upstreams[i] = UpstreamStats{
			Name:     up.name,
			URL:      up.base.String(),
			Weight:   up.weight,
			Healthy:  up.healthy.Load(),
			InFlight: up.inflight.Load(),
			Requests: up.requests.Load(),
			Errors:   up.errors.Load(),
		}
	}
	return s
}
