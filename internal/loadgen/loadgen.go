// Package loadgen is the service-level load harness for bwserved: a
// concurrent HTTP load generator with deterministic, seeded request
// streams over mixed request classes (cache-hit and cache-miss
// predictions, topology and faulted predictions, batches, text
// renderings and cluster lifecycles), a per-request latency log, and a
// per-class throughput/percentile report (report.go).
//
// The same seeded request streams back the deterministic capture/replay
// oracle (capture.go): Record issues one stream sequentially and logs
// every request with a canonical fingerprint of its response; Replay
// re-issues a recorded log — time-compressed — against another build
// and reports behavioral divergence at the exact request index.
//
// Every benchmark and gate built on this package (internal/benchsuite
// load entries, cmd/bwload, the CI load-slo job) shares these
// definitions, so "the mixed workload" means exactly one thing
// repo-wide.
package loadgen

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Request classes. A class names one kind of traffic; the cluster class
// expands into its three lifecycle steps, which appear in samples and
// capture logs under their own step names.
const (
	// ClassHit cycles GET /v1/predict over a fixed catalog set, so all
	// but the first touch of each scheme is an LRU cache hit.
	ClassHit = "predict-hit"
	// ClassMiss POSTs a fresh random scheme every op (volumes encode the
	// worker and op index), so every request simulates.
	ClassMiss = "predict-miss"
	// ClassTopo predicts a ring on an oversubscribed fat-tree fabric.
	ClassTopo = "predict-topo"
	// ClassFault predicts the fat-tree ring under a fault schedule
	// (degraded uplink + slow host).
	ClassFault = "predict-fault"
	// ClassBatch POSTs a 4-item /v1/predict/batch call (three catalog
	// schemes and one fresh random scheme).
	ClassBatch = "predict-batch"
	// ClassText fetches the bwpredict-identical text rendering.
	ClassText = "predict-text"
	// ClassCluster runs one cluster lifecycle: create a fat-tree
	// cluster, rank placements for a ring job, delete the cluster. Its
	// samples carry the step classes below.
	ClassCluster = "cluster"
	// ClassBad sends a request the server must 400 (unknown model).
	// Not part of DefaultMix; tests use it to drive the client_errors
	// counter deliberately.
	ClassBad = "bad-request"
)

// Cluster lifecycle step classes (sample/log labels of ClassCluster ops).
const (
	ClassClusterCreate = "cluster-create"
	ClassClusterPlace  = "cluster-place"
	ClassClusterDelete = "cluster-delete"
)

// Classes lists every mixable class in canonical order.
func Classes() []string {
	return []string{ClassHit, ClassMiss, ClassTopo, ClassFault, ClassBatch, ClassText, ClassCluster, ClassBad}
}

// Mix maps class name to relative weight. The zero/empty Mix is invalid;
// use DefaultMix for the canonical workload.
type Mix map[string]int

// DefaultMix is the canonical mixed workload: predominantly cache-hit
// predictions with a steady stream of misses, fabric and fault
// simulations, batches, text renderings and cluster lifecycles.
func DefaultMix() Mix {
	return Mix{
		ClassHit:     4,
		ClassMiss:    2,
		ClassTopo:    1,
		ClassFault:   1,
		ClassBatch:   1,
		ClassText:    1,
		ClassCluster: 1,
	}
}

// ParseMix parses "predict-hit=4,predict-miss=2,..." into a Mix.
func ParseMix(s string) (Mix, error) {
	m := Mix{}
	known := map[string]bool{}
	for _, c := range Classes() {
		known[c] = true
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("mix entry %q is not class=weight", part)
		}
		if !known[name] {
			return nil, fmt.Errorf("unknown class %q (want one of %s)", name, strings.Join(Classes(), ", "))
		}
		var w int
		if _, err := fmt.Sscanf(val, "%d", &w); err != nil || w < 0 {
			return nil, fmt.Errorf("mix weight %q for %s must be a non-negative integer", val, name)
		}
		m[name] = w
	}
	return m, m.validate()
}

func (m Mix) validate() error {
	total := 0
	for c, w := range m {
		if w < 0 {
			return fmt.Errorf("class %s has negative weight %d", c, w)
		}
		total += w
	}
	if total == 0 {
		return fmt.Errorf("mix has no positive weights")
	}
	return nil
}

// deck expands the mix into a weighted class list in canonical order,
// so class selection is a pure function of (seed, worker, op).
func (m Mix) deck() []string {
	var d []string
	for _, c := range Classes() {
		for i := 0; i < m[c]; i++ {
			d = append(d, c)
		}
	}
	return d
}

// Request is one generated HTTP call. Body is nil for GET/DELETE.
type Request struct {
	Class  string
	Method string
	Path   string // path and query, relative to the base URL
	Body   []byte
}

// gen emits the deterministic request stream of one worker: the op
// sequence is a pure function of (seed, worker). Multi-step classes
// (cluster) emit several requests per op.
type gen struct {
	rng    *rand.Rand
	worker int
	op     int
	deck   []string
}

func newGen(seed int64, worker int, mix Mix) *gen {
	return &gen{
		// Distinct worker streams from one seed: the offset constant is
		// arbitrary but fixed forever (capture logs depend on it).
		rng:    rand.New(rand.NewSource(seed + int64(worker)*1_000_003)),
		worker: worker,
		deck:   mix.deck(),
	}
}

// Requests materializes worker w's deterministic stream of ops
// operations as a flat request list (multi-step classes contribute
// several requests per op) without issuing anything. Byte-identity
// tests drive the same stream through two serving paths in lockstep;
// distinct worker indices give streams with disjoint cache-miss keys
// (the unique volumes fold the worker index in, the seed alone does
// not).
func Requests(seed int64, worker int, mix Mix, ops int) ([]Request, error) {
	if mix == nil {
		mix = DefaultMix()
	}
	if err := mix.validate(); err != nil {
		return nil, err
	}
	if ops <= 0 {
		return nil, fmt.Errorf("loadgen: Requests needs a positive op count, got %d", ops)
	}
	g := newGen(seed, worker, mix)
	var out []Request
	for done := 0; done < ops; done++ {
		out = append(out, g.next()...)
	}
	return out, nil
}

// catalogPairs are the (scheme, model) pairs of the cache-hit class,
// matching the smoke-test set.
var catalogPairs = [...][2]string{
	{"s4", "gige"},
	{"s6", "gige"},
	{"fig4", "infiniband"},
	{"mk2", "myrinet"},
	{"fig5", "myrinet"},
}

// uniqueVolume returns a communication volume no other (worker, op)
// pair produces, so cache-miss schemes hash uniquely fleet-wide. The
// magnitudes stay exactly representable in float64.
func (g *gen) uniqueVolume(k int) float64 {
	return 1e6 + float64(float64(g.worker)*1e9) + float64(float64(g.op)*1e3) + float64(float64(k)*7)
}

// next emits the requests of one op and advances the stream.
func (g *gen) next() []Request {
	class := g.deck[g.rng.Intn(len(g.deck))]
	reqs := g.build(class)
	g.op++
	return reqs
}

func (g *gen) build(class string) []Request {
	switch class {
	case ClassHit:
		p := catalogPairs[g.rng.Intn(len(catalogPairs))]
		return []Request{{
			Class:  class,
			Method: http.MethodGet,
			Path:   fmt.Sprintf("/v1/predict?name=%s&model=%s", p[0], p[1]),
		}}
	case ClassMiss:
		n := 2 + g.rng.Intn(4)
		return []Request{{
			Class:  class,
			Method: http.MethodPost,
			Path:   "/v1/predict",
			Body:   []byte(fmt.Sprintf(`{"model":"gige","comms":%s}`, g.randComms(n, 8))),
		}}
	case ClassTopo:
		return []Request{{
			Class:  class,
			Method: http.MethodPost,
			Path:   "/v1/predict",
			Body: []byte(fmt.Sprintf(
				`{"model":"gige","topology":{"kind":"fattree","switches":4,"hosts_per_switch":4,"oversub":2},"comms":%s}`,
				g.ringComms(8))),
		}}
	case ClassFault:
		return []Request{{
			Class:  class,
			Method: http.MethodPost,
			Path:   "/v1/predict",
			Body: []byte(fmt.Sprintf(
				`{"model":"gige","topology":{"kind":"fattree","switches":4,"hosts_per_switch":4,"oversub":2},`+
					`"faults":[{"kind":"link_degrade","switch":1,"factor":0.5,"at":0.001},`+
					`{"kind":"host_slow","host":2,"factor":0.5,"at":0,"until":0.05}],"comms":%s}`,
				g.ringComms(8))),
		}}
	case ClassBatch:
		return []Request{{
			Class:  class,
			Method: http.MethodPost,
			Path:   "/v1/predict/batch",
			Body: []byte(fmt.Sprintf(
				`{"requests":[{"name":"s4"},{"name":"s6"},{"name":"mk2","model":"myrinet"},{"model":"gige","comms":%s}]}`,
				g.randComms(3, 6))),
		}}
	case ClassText:
		p := catalogPairs[g.rng.Intn(len(catalogPairs))]
		return []Request{{
			Class:  class,
			Method: http.MethodGet,
			Path:   fmt.Sprintf("/v1/predict?format=text&name=%s&model=%s", p[0], p[1]),
		}}
	case ClassCluster:
		name := fmt.Sprintf("lg-%d-%d", g.worker, g.op)
		return []Request{
			{
				Class:  ClassClusterCreate,
				Method: http.MethodPost,
				Path:   "/v1/clusters",
				Body: []byte(fmt.Sprintf(
					`{"name":%q,"topology":{"kind":"fattree","switches":2,"hosts_per_switch":4,"oversub":2}}`, name)),
			},
			{
				Class:  ClassClusterPlace,
				Method: http.MethodPost,
				Path:   "/v1/clusters/" + name + "/placements",
				Body:   []byte(fmt.Sprintf(`{"comms":%s,"seeds":1}`, g.ringComms(4))),
			},
			{
				Class:  ClassClusterDelete,
				Method: http.MethodDelete,
				Path:   "/v1/clusters/" + name,
			},
		}
	case ClassBad:
		return []Request{{
			Class:  class,
			Method: http.MethodPost,
			Path:   "/v1/predict",
			Body:   []byte(`{"model":"no-such-model","name":"s4"}`),
		}}
	default:
		panic("loadgen: unknown class " + class)
	}
}

// randComms renders n random communications over nodes [0, nodes) as a
// JSON array; volumes are unique per (worker, op).
func (g *gen) randComms(n, nodes int) string {
	var b strings.Builder
	b.WriteByte('[')
	for k := 0; k < n; k++ {
		src := g.rng.Intn(nodes)
		dst := g.rng.Intn(nodes - 1)
		if dst >= src {
			dst++
		}
		if k > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"src":%d,"dst":%d,"volume":%.0f}`, src, dst, g.uniqueVolume(k))
	}
	b.WriteByte(']')
	return b.String()
}

// ringComms renders an n-task ring (task k sends to k+1 mod n) with
// unique volumes.
func (g *gen) ringComms(n int) string {
	var b strings.Builder
	b.WriteByte('[')
	for k := 0; k < n; k++ {
		if k > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"src":%d,"dst":%d,"volume":%.0f}`, k, (k+1)%n, g.uniqueVolume(k))
	}
	b.WriteByte(']')
	return b.String()
}

// Config sizes one load run.
type Config struct {
	// BaseURL is the bwserved root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Concurrency is the worker (client goroutine) count. Default 1.
	Concurrency int
	// Duration stops the run after a wall-clock budget. Ignored when
	// Ops is set.
	Duration time.Duration
	// Ops, when positive, runs a fixed total op count split across
	// workers (op i belongs to worker i mod Concurrency) — the
	// deterministic-shape mode used by benchmarks and capture.
	Ops int
	// Seed fixes every worker's request stream.
	Seed int64
	// Mix weights the request classes; nil means DefaultMix.
	Mix Mix
	// Client overrides the HTTP client (tests inject httptest clients).
	Client *http.Client
}

func (cfg *Config) fill() error {
	if cfg.BaseURL == "" {
		return fmt.Errorf("loadgen: BaseURL required")
	}
	cfg.BaseURL = strings.TrimSuffix(cfg.BaseURL, "/")
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	if cfg.Ops <= 0 && cfg.Duration <= 0 {
		return fmt.Errorf("loadgen: one of Ops or Duration must be positive")
	}
	if cfg.Mix == nil {
		cfg.Mix = DefaultMix()
	}
	if err := cfg.Mix.validate(); err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        cfg.Concurrency + 2,
				MaxIdleConnsPerHost: cfg.Concurrency + 2,
			},
		}
	}
	return nil
}

// Sample is one issued request's outcome. Latencies and offsets are
// microseconds: coarse enough to keep logs compact, fine enough for
// sub-millisecond service latencies.
type Sample struct {
	Class     string `json:"class"`
	Worker    int    `json:"worker"`
	Op        int    `json:"op"`
	StartUS   int64  `json:"start_us"` // offset from run start
	LatencyUS int64  `json:"latency_us"`
	Status    int    `json:"status"`
	Err       string `json:"error,omitempty"` // transport failure (Status 0)
}

// OK reports whether the request got a 2xx answer.
func (s Sample) OK() bool { return s.Status >= 200 && s.Status < 300 }

// RunResult is the raw outcome of a load run.
type RunResult struct {
	Samples []Sample
	Wall    time.Duration
}

// Run drives the configured workload and collects every request's
// latency sample. Workers stop at the duration budget (finishing their
// in-flight op) or after their share of Ops.
func Run(cfg Config) (RunResult, error) {
	if err := cfg.fill(); err != nil {
		return RunResult{}, err
	}
	start := time.Now()
	deadline := time.Time{}
	if cfg.Ops <= 0 {
		deadline = start.Add(cfg.Duration)
	}
	perWorker := make([][]Sample, cfg.Concurrency)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := newGen(cfg.Seed, w, cfg.Mix)
			// Worker w owns ops w, w+C, w+2C, ... of a fixed-Ops run.
			budget := 0
			if cfg.Ops > 0 {
				budget = cfg.Ops / cfg.Concurrency
				if w < cfg.Ops%cfg.Concurrency {
					budget++
				}
			}
			done := 0
			for {
				if cfg.Ops > 0 {
					if done >= budget {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				op := g.op
				for _, req := range g.next() {
					perWorker[w] = append(perWorker[w], issue(cfg.Client, cfg.BaseURL, req, start, w, op))
				}
				done++
			}
		}(w)
	}
	wg.Wait()
	res := RunResult{Wall: time.Since(start)}
	for _, s := range perWorker {
		res.Samples = append(res.Samples, s...)
	}
	return res, nil
}

// issue sends one request, draining the body so connections are reused,
// and returns its sample.
func issue(client *http.Client, base string, req Request, start time.Time, worker, op int) Sample {
	s := Sample{Class: req.Class, Worker: worker, Op: op}
	var body io.Reader
	if req.Body != nil {
		body = bytes.NewReader(req.Body)
	}
	hreq, err := http.NewRequest(req.Method, base+req.Path, body)
	if err != nil {
		s.Err = err.Error()
		return s
	}
	if req.Body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	s.StartUS = t0.Sub(start).Microseconds()
	resp, err := client.Do(hreq)
	if err != nil {
		s.LatencyUS = time.Since(t0).Microseconds()
		s.Err = err.Error()
		return s
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.LatencyUS = time.Since(t0).Microseconds()
	s.Status = resp.StatusCode
	return s
}

// sortDurations is a tiny named helper so report code reads clearly.
func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}
