package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bwshare/internal/api"
)

// stubUpstream is a fake worker that records which paths it served and
// answers every request 200 with a body naming itself, so tests can see
// exactly where the gateway routed.
type stubUpstream struct {
	name   string
	ts     *httptest.Server
	served atomic.Int64
	block  chan struct{} // non-nil: handler waits until the channel closes
	dead   atomic.Bool   // healthz answers 500
}

func newStub(t *testing.T, name string) *stubUpstream {
	t.Helper()
	s := &stubUpstream{name: name}
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			if s.dead.Load() {
				w.WriteHeader(http.StatusInternalServerError)
				return
			}
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		if s.block != nil {
			<-s.block
		}
		s.served.Add(1)
		fmt.Fprintf(w, "served-by:%s %s %s", s.name, r.Method, r.URL.Path)
	}))
	t.Cleanup(s.ts.Close)
	return s
}

func newTestGateway(t *testing.T, cfg Config, stubs ...*stubUpstream) (*Gateway, *httptest.Server) {
	t.Helper()
	for _, s := range stubs {
		cfg.Upstreams = append(cfg.Upstreams, Upstream{Name: s.name, URL: s.ts.URL})
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = -1 // tests drive probes explicitly
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

// TestStickyRouting: the same predict key always lands on the same
// upstream, and distinct keys use the whole fleet.
func TestStickyRouting(t *testing.T) {
	a, b := newStub(t, "a"), newStub(t, "b")
	_, ts := newTestGateway(t, Config{}, a, b)
	first := ""
	for i := 0; i < 5; i++ {
		_, body := get(t, ts.URL+"/v1/predict?name=s4&model=gige")
		who, _, _ := strings.Cut(strings.TrimPrefix(body, "served-by:"), " ")
		if first == "" {
			first = who
		} else if who != first {
			t.Fatalf("key moved between upstreams: %q then %q", first, who)
		}
	}
	// A spread of distinct keys must touch both replicas.
	for _, name := range []string{"s4", "s6", "fig4", "fig5", "mk2"} {
		for _, model := range []string{"gige", "myrinet", "infiniband"} {
			get(t, ts.URL+"/v1/predict?name="+name+"&model="+model)
		}
	}
	if a.served.Load() == 0 || b.served.Load() == 0 {
		t.Errorf("15 distinct keys left a replica idle: a=%d b=%d", a.served.Load(), b.served.Load())
	}
}

// TestClusterAffinity: every request about one named cluster — the
// creating POST included — lands on the same upstream.
func TestClusterAffinity(t *testing.T) {
	a, b := newStub(t, "a"), newStub(t, "b")
	_, ts := newTestGateway(t, Config{}, a, b)
	for _, cluster := range []string{"alpha", "beta", "gamma", "delta"} {
		resp, err := http.Post(ts.URL+"/v1/clusters", "application/json",
			strings.NewReader(`{"name":"`+cluster+`","hosts":4}`))
		if err != nil {
			t.Fatal(err)
		}
		created, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		who := string(created)
		for _, path := range []string{
			"/v1/clusters/" + cluster,
			"/v1/clusters/" + cluster + "/jobs",
			"/v1/clusters/" + cluster + "/jobs/j1",
		} {
			_, body := get(t, ts.URL+path)
			if bodyWho, _, _ := strings.Cut(body, " "); !strings.HasPrefix(who, bodyWho) {
				t.Errorf("cluster %s: create went to %q but %s went to %q", cluster, who, path, body)
			}
		}
	}
}

// TestAdmission429: with MaxInFlight=1 and the only in-flight slot
// held, the next request for that upstream is rejected 429 with a
// Retry-After hint — and is NOT spilled to the other replica (that
// would shred cache affinity).
func TestAdmission429(t *testing.T) {
	a, b := newStub(t, "a"), newStub(t, "b")
	a.block = make(chan struct{})
	b.block = make(chan struct{})
	g, ts := newTestGateway(t, Config{MaxInFlight: 1}, a, b)

	const q = "/v1/predict?name=s4&model=gige"
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL + q)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	// Wait until the first request occupies its upstream's only slot.
	waitFor(t, func() bool {
		for _, up := range g.ups {
			if up.inflight.Load() == 1 {
				return true
			}
		}
		return false
	})
	resp, body := get(t, ts.URL+q)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated upstream: status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("a 429 must carry a Retry-After hint")
	}
	if !strings.Contains(body, "in-flight limit") {
		t.Errorf("error should name the limit: %s", body)
	}
	if st := g.Snapshot(); st.Rejected != 1 {
		t.Errorf("rejected counter: %+v", st)
	}
	close(a.block)
	close(b.block)
	wg.Wait()
	// Slot free again: the identical request now passes.
	if resp, body := get(t, ts.URL+q); resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d: %s", resp.StatusCode, body)
	}
}

// TestGetRetryOnce: a GET whose home upstream dies at the transport is
// retried exactly once, on the key's next healthy replica; the dead
// home is passively ejected.
func TestGetRetryOnce(t *testing.T) {
	a, b := newStub(t, "a"), newStub(t, "b")
	g, ts := newTestGateway(t, Config{}, a, b)
	// Find a catalog query homed on each replica, then kill one.
	homes := map[string]string{}
	for _, name := range []string{"s4", "s6", "fig4", "fig5", "mk2"} {
		q := url.Values{"name": {name}, "model": {"gige"}}
		req, _, err := api.ParsePredictQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		key, ok := predictShardKey(api.NewKey(), &req)
		if !ok {
			t.Fatalf("%s does not resolve", name)
		}
		homes[name] = g.healthyOrder(key)[0].name
	}
	var onA string
	for name, home := range homes {
		if home == "a" {
			onA = name
			break
		}
	}
	if onA == "" {
		t.Fatal("no catalog key homed on replica a")
	}
	a.ts.Close() // transport failures from now on
	resp, body := get(t, ts.URL+"/v1/predict?name="+onA+"&model=gige")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "served-by:b") {
		t.Fatalf("failover GET: status %d body %q, want 200 from b", resp.StatusCode, body)
	}
	st := g.Snapshot()
	if st.Retries != 1 {
		t.Errorf("retries = %d, want 1", st.Retries)
	}
	for _, up := range st.Upstreams {
		if up.Name == "a" && up.Healthy {
			t.Error("replica a must be passively ejected after the transport failure")
		}
	}
	// POSTs are not idempotent: one keyed to the dead (ejected) replica
	// routes straight to b now; but a POST that dies mid-flight answers
	// 502 — covered by TestPostNoRetry502.
}

// TestPostNoRetry502: a POST whose home dies at the transport is NOT
// retried — the worker may have acted on it — and answers 502.
func TestPostNoRetry502(t *testing.T) {
	a, b := newStub(t, "a"), newStub(t, "b")
	g, ts := newTestGateway(t, Config{}, a, b)
	// Cluster names shard by name; find one homed on each replica.
	var onA, onB string
	for _, c := range []string{"c1", "c2", "c3", "c4", "c5", "c6"} {
		if g.healthyOrder(clusterShardKey(c))[0].name == "a" {
			onA = c
		} else {
			onB = c
		}
	}
	if onA == "" || onB == "" {
		t.Fatal("cluster names did not cover both replicas")
	}
	a.ts.Close()
	resp, err := http.Post(ts.URL+"/v1/clusters", "application/json",
		strings.NewReader(`{"name":"`+onA+`","hosts":4}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("POST to dead home: status %d, want 502: %s", resp.StatusCode, body)
	}
	if st := g.Snapshot(); st.BadGateway != 1 || st.Retries != 0 {
		t.Errorf("a dead POST must count 502 and never retry: %+v", st)
	}
}

// TestNoHealthy503: with every replica ejected the gateway answers 503
// with a Retry-After hint.
func TestNoHealthy503(t *testing.T) {
	a, b := newStub(t, "a"), newStub(t, "b")
	g, ts := newTestGateway(t, Config{}, a, b)
	a.dead.Store(true)
	b.dead.Store(true)
	g.ProbeNow()
	resp, body := get(t, ts.URL+"/v1/predict?name=s4&model=gige")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty fleet: status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("a 503 must carry a Retry-After hint")
	}
	if st := g.Snapshot(); st.Unavailable != 1 {
		t.Errorf("unavailable counter: %+v", st)
	}
}

// TestProbeEjectAndReAdd: a replica failing its health probe is
// ejected (its keys fall through to the survivor) and re-added when it
// passes again (its keys return).
func TestProbeEjectAndReAdd(t *testing.T) {
	a, b := newStub(t, "a"), newStub(t, "b")
	g, ts := newTestGateway(t, Config{}, a, b)
	b.dead.Store(true)
	g.ProbeNow()
	for i := 0; i < 8; i++ {
		_, body := get(t, ts.URL+fmt.Sprintf("/v1/predict?name=s4&model=gige&ref_rate=%d", 1000000+i))
		if !strings.Contains(body, "served-by:a") {
			t.Fatalf("with b ejected every key must route to a, got %q", body)
		}
	}
	b.dead.Store(false)
	g.ProbeNow()
	bBefore := b.served.Load()
	for _, name := range []string{"s4", "s6", "fig4", "fig5", "mk2"} {
		get(t, ts.URL+"/v1/predict?name="+name+"&model=myrinet")
	}
	if b.served.Load() == bBefore {
		t.Error("re-added replica b got no traffic across 5 distinct keys")
	}
}

// TestGatewayStats: the stats endpoint reports the per-upstream split
// the load harness prints as its fleet line.
func TestGatewayStats(t *testing.T) {
	a, b := newStub(t, "a"), newStub(t, "b")
	_, ts := newTestGateway(t, Config{}, a, b)
	for _, name := range []string{"s4", "s6", "fig4", "fig5", "mk2"} {
		get(t, ts.URL+"/v1/predict?name="+name+"&model=gige")
	}
	resp, body := get(t, ts.URL+"/v1/gateway/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d %s", resp.StatusCode, body)
	}
	var st Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("stats document: %v\n%s", err, body)
	}
	if len(st.Upstreams) != 2 {
		t.Fatalf("want 2 upstreams in %+v", st)
	}
	var total int64
	for _, up := range st.Upstreams {
		total += up.Requests
	}
	if total != 5 {
		t.Errorf("per-upstream requests sum to %d, want 5: %+v", total, st.Upstreams)
	}
	if st.Requests != 6 { // 5 predicts + the stats call itself
		t.Errorf("gateway requests = %d, want 6", st.Requests)
	}
}

// TestConcurrentEjectReAdd exercises the health/routing races under the
// race detector (make race): requests keep flowing while a replica is
// ejected and re-added concurrently.
func TestConcurrentEjectReAdd(t *testing.T) {
	a, b := newStub(t, "a"), newStub(t, "b")
	g, ts := newTestGateway(t, Config{MaxInFlight: 32}, a, b)
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		flip := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			b.dead.Store(flip)
			flip = !flip
			g.ProbeNow()
		}
	}()
	var clients sync.WaitGroup
	for w := 0; w < 4; w++ {
		clients.Add(1)
		go func(w int) {
			defer clients.Done()
			for i := 0; i < 50; i++ {
				resp, err := http.Get(ts.URL + fmt.Sprintf("/v1/predict?name=s4&model=gige&ref_rate=%d", 1000000+w*100+i))
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("worker %d: status %d", w, resp.StatusCode)
				}
			}
		}(w)
	}
	clients.Wait()
	close(stop)
	churn.Wait()
}

// waitFor polls until cond holds (the enclosing test's deadline bounds
// the wait).
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for !cond() {
	}
}
