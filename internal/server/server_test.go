package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bwshare/internal/api"
	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/predict"
	"bwshare/internal/report"
	"bwshare/internal/schemes"
	"bwshare/internal/topology"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestPredictCatalogJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, CacheSize: 8})
	code, body := postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{Model: "gige", Name: "s4"})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var p report.Prediction
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if p.Model != "gige" || !p.Progressive || p.Cached || len(p.Comms) != 4 {
		t.Fatalf("unexpected prediction: %+v", p)
	}
	g, _ := schemes.Named("s4")
	m, sub, _ := predict.LookupModel("gige")
	want := predict.Times(g, m, sub.RefRate())
	for i, c := range p.Comms {
		if c.Time != want[i] {
			t.Errorf("comm %d: time %g, want %g", i, c.Time, want[i])
		}
	}
	// The same request again is served from the cache with identical
	// numbers.
	code, body2 := postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{Model: "gige", Name: "s4"})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body2)
	}
	var p2 report.Prediction
	if err := json.Unmarshal(body2, &p2); err != nil {
		t.Fatal(err)
	}
	if !p2.Cached {
		t.Error("second identical request should be a cache hit")
	}
	p2.Cached = p.Cached
	if fmt.Sprint(p) != fmt.Sprint(p2) {
		t.Errorf("cached response differs:\n%v\n%v", p, p2)
	}
}

// TestRequestFormsShareCache sends the same scheme as a catalog name,
// as schemelang text and as structured comms: all three resolve to the
// same canonical hash, so the second and third are cache hits with
// identical values.
func TestRequestFormsShareCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheSize: 8})
	g, _ := schemes.Named("s2")
	var text strings.Builder
	for _, c := range g.Comms() {
		fmt.Fprintf(&text, "%s: %d -> %d %gB\n", c.Label, c.Src, c.Dst, c.Volume)
	}
	comms := make([]api.CommRequest, g.Len())
	for i, c := range g.Comms() {
		comms[i] = api.CommRequest{Label: c.Label, Src: int(c.Src), Dst: int(c.Dst), Volume: c.Volume}
	}
	reqs := []api.PredictRequest{
		{Model: "myrinet", Name: "s2"},
		{Model: "myrinet", Scheme: text.String()},
		{Model: "myrinet", Comms: comms},
	}
	var first report.Prediction
	for i, req := range reqs {
		code, body := postJSON(t, ts.URL+"/v1/predict", req)
		if code != http.StatusOK {
			t.Fatalf("form %d: status %d: %s", i, code, body)
		}
		var p report.Prediction
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = p
			continue
		}
		if !p.Cached {
			t.Errorf("form %d: expected a cache hit", i)
		}
		p.Cached = first.Cached
		if fmt.Sprint(p) != fmt.Sprint(first) {
			t.Errorf("form %d: response differs from catalog form", i)
		}
	}
	if st := s.Snapshot(); st.CacheHits != 2 || st.CacheMisses != 1 {
		t.Errorf("hits=%d misses=%d, want 2/1", st.CacheHits, st.CacheMisses)
	}
}

func TestPredictTextFormat(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheSize: 8})
	code, body := get(t, ts.URL+"/v1/predict?format=text&name=mk2&model=myrinet")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	g, _ := schemes.Named("mk2")
	res, err := s.Predict(context.Background(), g, "myrinet", false, 0, topology.Spec{}, fault.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	report.PredictionText(&want, s.Model("myrinet").Name(), true, res.RefRate, g, res.Penalties, res.Times, nil)
	if string(body) != want.String() {
		t.Errorf("text format drifted:\n got: %q\nwant: %q", body, want.String())
	}
	// A cache hit must render byte-identical text (no cached marker).
	_, body2 := get(t, ts.URL+"/v1/predict?format=text&name=mk2&model=myrinet")
	if !bytes.Equal(body, body2) {
		t.Error("cached text response differs from uncached")
	}
}

func TestStaticAndRefRateKeyTheCache(t *testing.T) {
	s := New(Config{Workers: 1, CacheSize: 8})
	g, _ := schemes.Named("s4")
	prog, err := s.Predict(context.Background(), g, "gige", false, 0, topology.Spec{}, fault.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	static, err := s.Predict(context.Background(), g, "gige", true, 0, topology.Spec{}, fault.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	if static.Cached {
		t.Error("static variant must not hit the progressive entry")
	}
	if fmt.Sprint(prog.Times) == fmt.Sprint(static.Times) {
		t.Error("static and progressive times should differ on s4")
	}
	other, err := s.Predict(context.Background(), g, "gige", false, 2*prog.RefRate, topology.Spec{}, fault.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached {
		t.Error("different ref rate must not hit the default-rate entry")
	}
	if again, _ := s.Predict(context.Background(), g, "gige", false, 0, topology.Spec{}, fault.Schedule{}); !again.Cached {
		t.Error("original request should still hit")
	}
}

func TestPredictErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheSize: 8})
	cases := []struct {
		name string
		req  api.PredictRequest
	}{
		{"unknown model", api.PredictRequest{Model: "nope", Name: "s1"}},
		{"unknown scheme", api.PredictRequest{Name: "bogus"}},
		{"no scheme", api.PredictRequest{Model: "gige"}},
		{"two forms", api.PredictRequest{Name: "s1", Scheme: "a: 0 -> 1"}},
		{"malformed scheme", api.PredictRequest{Scheme: "a 0 1"}},
		{"self loop", api.PredictRequest{Comms: []api.CommRequest{{Src: 1, Dst: 1}}}},
		{"negative ref", api.PredictRequest{Name: "s1", RefRate: -1}},
	}
	for _, tc := range cases {
		code, body := postJSON(t, ts.URL+"/v1/predict", tc.req)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", tc.name, code, body)
		}
		var e api.ErrorBody
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: not an error envelope: %s", tc.name, body)
		}
	}
	if code, _ := get(t, ts.URL+"/v1/predict"); code != http.StatusBadRequest {
		t.Errorf("GET without name: status %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated body: status %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/predict", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT: status %d, want 405", resp.StatusCode)
	}
}

func TestBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, CacheSize: 8})
	code, body := postJSON(t, ts.URL+"/v1/predict/batch", api.BatchRequest{Requests: []api.PredictRequest{
		{Model: "gige", Name: "s3"},
		{Model: "nope", Name: "s3"},
		{Model: "gige", Name: "s3"},
	}})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var out struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("%d results, want 3", len(out.Results))
	}
	var p report.Prediction
	if err := json.Unmarshal(out.Results[0], &p); err != nil || len(p.Comms) != 3 {
		t.Errorf("result 0: %s", out.Results[0])
	}
	var e api.ErrorBody
	if err := json.Unmarshal(out.Results[1], &e); err != nil || e.Error == "" {
		t.Errorf("result 1 should be an error: %s", out.Results[1])
	}
	var p2 report.Prediction
	if err := json.Unmarshal(out.Results[2], &p2); err != nil || !p2.Cached {
		t.Errorf("result 2 should be a cache hit: %s", out.Results[2])
	}
	// Empty and oversized batches are rejected.
	if code, _ := postJSON(t, ts.URL+"/v1/predict/batch", api.BatchRequest{}); code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d", code)
	}
	big := api.BatchRequest{Requests: make([]api.PredictRequest, api.MaxBatch+1)}
	if code, _ := postJSON(t, ts.URL+"/v1/predict/batch", big); code != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d", code)
	}
}

// TestBatchCountsItemErrors: a failed batch item must show up in the
// errors stat just like a failed /v1/predict call.
func TestBatchCountsItemErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheSize: 8})
	postJSON(t, ts.URL+"/v1/predict/batch", api.BatchRequest{Requests: []api.PredictRequest{
		{Model: "nope", Name: "s1"},
		{Name: "bogus"},
	}})
	if st := s.Snapshot(); st.Errors != 2 {
		t.Errorf("errors = %d, want 2", st.Errors)
	}
}

func TestSchemeLimits(t *testing.T) {
	comms := make([]api.CommRequest, api.MaxComms+1)
	for i := range comms {
		comms[i] = api.CommRequest{Src: 0, Dst: i + 1}
	}
	if _, _, _, err := api.ResolveGraph(api.PredictRequest{Comms: comms}); err == nil {
		t.Error("oversized scheme should be rejected")
	}
	if _, _, _, err := api.ResolveGraph(api.PredictRequest{Comms: []api.CommRequest{{Src: 0, Dst: api.MaxNodeID}}}); err == nil {
		t.Error("out-of-range node id should be rejected")
	}
	if _, _, _, err := api.ResolveGraph(api.PredictRequest{Comms: []api.CommRequest{{Src: 0, Dst: api.MaxNodeID - 1}}}); err != nil {
		t.Errorf("maximal node id should be accepted: %v", err)
	}
}

func TestCatalogEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheSize: 8})
	code, body := get(t, ts.URL+"/v1/models")
	if code != http.StatusOK {
		t.Fatalf("models: status %d", code)
	}
	var models struct {
		Models []struct {
			Name    string  `json:"name"`
			RefRate float64 `json:"ref_rate_bytes_per_s"`
		} `json:"models"`
	}
	if err := json.Unmarshal(body, &models); err != nil {
		t.Fatal(err)
	}
	if len(models.Models) != len(predict.ModelNames()) {
		t.Errorf("%d models, want %d", len(models.Models), len(predict.ModelNames()))
	}
	for _, m := range models.Models {
		if m.RefRate <= 0 {
			t.Errorf("model %s: non-positive ref rate", m.Name)
		}
	}
	code, body = get(t, ts.URL+"/v1/schemes")
	if code != http.StatusOK {
		t.Fatalf("schemes: status %d", code)
	}
	var sc struct {
		Schemes []struct {
			Name   string `json:"name"`
			Comms  int    `json:"comms"`
			Scheme string `json:"scheme"`
		} `json:"schemes"`
	}
	if err := json.Unmarshal(body, &sc); err != nil {
		t.Fatal(err)
	}
	if len(sc.Schemes) != len(schemes.Names()) {
		t.Errorf("%d schemes, want %d", len(sc.Schemes), len(schemes.Names()))
	}
	code, body = get(t, ts.URL+"/v1/healthz")
	if code != http.StatusOK || !bytes.Contains(body, []byte("ok")) {
		t.Errorf("healthz: %d %s", code, body)
	}
	code, body = get(t, ts.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Workers != 1 || st.CacheCapacity != 8 {
		t.Errorf("stats: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	mk := func(label string) (*graph.Graph, cacheKey) {
		g := graph.NewBuilder().Add(label, 0, 1, 1e6).MustBuild()
		return g, cacheKey{hash: uint64(len(label)), model: "m"}
	}
	g1, k1 := mk("a")
	g2, k2 := mk("ab")
	g3, k3 := mk("abc")
	c.put(&entry{key: k1, g: g1})
	c.put(&entry{key: k2, g: g2})
	if c.get(k1, keyOf(g1)) == nil {
		t.Fatal("k1 should be resident")
	}
	c.put(&entry{key: k3, g: g3}) // evicts k2 (least recently used)
	if c.get(k2, keyOf(g2)) != nil {
		t.Error("k2 should have been evicted")
	}
	if c.get(k1, keyOf(g1)) == nil || c.get(k3, keyOf(g3)) == nil {
		t.Error("k1 and k3 should be resident")
	}
	if c.len() != 2 {
		t.Errorf("len %d, want 2", c.len())
	}
	// A hash collision with a different graph must not be served.
	other := graph.NewBuilder().Add("z", 5, 6, 2e6).MustBuild()
	if c.get(k1, keyOf(other)) != nil {
		t.Error("collision with different graph served from cache")
	}
}

func TestDisabledCache(t *testing.T) {
	s := New(Config{Workers: 1, CacheSize: -1})
	g, _ := schemes.Named("s2")
	for i := 0; i < 2; i++ {
		res, err := s.Predict(context.Background(), g, "gige", false, 0, topology.Spec{}, fault.Schedule{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Error("disabled cache should never hit")
		}
	}
}

// TestPredictZeroAllocOnHit is the acceptance criterion: a cache hit
// must not allocate.
func TestPredictZeroAllocOnHit(t *testing.T) {
	s := New(Config{Workers: 1, CacheSize: 16})
	g, _ := schemes.Named("s6")
	if _, err := s.Predict(context.Background(), g, "gige", false, 0, topology.Spec{}, fault.Schedule{}); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(1000, func() {
		res, err := s.Predict(context.Background(), g, "gige", false, 0, topology.Spec{}, fault.Schedule{})
		if err != nil || !res.Cached {
			t.Fatal("expected a cache hit")
		}
	})
	if n != 0 {
		t.Errorf("cache hit allocates %v per op, want 0", n)
	}
}

// TestConcurrentPredictDeterministic drives >= 64 concurrent /v1/predict
// requests over a mixed scheme set through the real HTTP stack and
// checks every response is byte-identical to the sequential baseline
// (modulo the cached flag, which is load-order dependent). Run under
// -race in CI.
func TestConcurrentPredictDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, CacheSize: 32})
	type call struct {
		req  api.PredictRequest
		want string
	}
	var calls []call
	for _, name := range []string{"s2", "s4", "s6", "fig4", "fig5", "mk1", "mk2"} {
		for _, model := range []string{"gige", "myrinet", "infiniband"} {
			calls = append(calls, call{req: api.PredictRequest{Model: model, Name: name}})
			calls = append(calls, call{req: api.PredictRequest{Model: model, Name: name, Static: true}})
		}
	}
	strip := func(body []byte) string {
		var p report.Prediction
		if err := json.Unmarshal(body, &p); err != nil {
			t.Errorf("bad body: %v: %s", err, body)
		}
		p.Cached = false
		data, _ := json.Marshal(p)
		return string(data)
	}
	// Sequential baseline from a fresh server.
	_, base := newTestServer(t, Config{Workers: 1, CacheSize: 32})
	for i := range calls {
		code, body := postJSON(t, base.URL+"/v1/predict", calls[i].req)
		if code != http.StatusOK {
			t.Fatalf("baseline %d: status %d: %s", i, code, body)
		}
		calls[i].want = strip(body)
	}
	const goroutines = 64
	const perG = 4
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*perG)
	start := make(chan struct{})
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for k := 0; k < perG; k++ {
				c := calls[(w*perG+k)%len(calls)]
				data, err := json.Marshal(c.req)
				if err != nil {
					errs <- err.Error()
					continue
				}
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(data))
				if err != nil {
					errs <- err.Error()
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err.Error()
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("status %d: %s", resp.StatusCode, body)
					continue
				}
				if got := strip(body); got != c.want {
					errs <- fmt.Sprintf("nondeterministic response for %+v:\n got %s\nwant %s", c.req, got, c.want)
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
