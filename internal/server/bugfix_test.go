// Regression tests for the serving-layer bugfix sweep: engine panics
// must answer 500 (not 400), the stats counters must keep the
// errors <= requests invariant through batches, and the GET query
// grammar must reject what it cannot parse instead of ignoring it.
package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"bwshare/internal/api"
	"bwshare/internal/graph"
	"bwshare/internal/report"
)

// panicModel stands in for a simulator defect: any prediction against
// it panics the way a degenerate engine state would.
type panicModel struct{}

func (panicModel) Name() string { return "boom" }
func (panicModel) Penalties(g *graph.Graph) []float64 {
	panic("synthetic engine failure")
}

// registerPanicModel installs the panicking model under the name "boom".
// Must run before the first request: the registry maps are read without
// locks once the server is serving.
func registerPanicModel(s *Server) {
	s.canon["boom"] = "boom"
	s.models["boom"] = panicModel{}
	s.refs["boom"] = 1e9
}

// TestEnginePanicReturns500: a panic inside the prediction engine is the
// service failing, not the client, so it must surface as 500 — the
// previous behavior answered 400, telling the caller to "fix" a valid
// request.
func TestEnginePanicReturns500(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheSize: 8})
	registerPanicModel(s)

	code, body := postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{Model: "boom", Name: "s1"})
	if code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", code, body)
	}
	var e api.ErrorBody
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("not an error envelope: %s", body)
	}
	st := s.Snapshot()
	if st.InternalErrors != 1 || st.ClientErrors != 0 {
		t.Errorf("internal=%d client=%d, want 1/0", st.InternalErrors, st.ClientErrors)
	}

	// The worker was returned to the pool despite the panic: with
	// Workers=1 a lost worker would deadlock this follow-up request.
	code, _ = postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{Model: "gige", Name: "s1"})
	if code != http.StatusOK {
		t.Fatalf("request after panic: status %d, want 200", code)
	}

	// In a batch, the panicking item carries its own 500 in the envelope
	// while client mistakes stay 400 and good items still predict.
	code, body = postJSON(t, ts.URL+"/v1/predict/batch", api.BatchRequest{Requests: []api.PredictRequest{
		{Model: "boom", Name: "s1"},
		{Model: "nope", Name: "s1"},
		{Model: "gige", Name: "s1"},
	}})
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, body)
	}
	var out struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil || len(out.Results) != 3 {
		t.Fatalf("batch results: %s", body)
	}
	var e0, e1 api.ErrorBody
	if err := json.Unmarshal(out.Results[0], &e0); err != nil || e0.Status != http.StatusInternalServerError {
		t.Errorf("panic item: %s", out.Results[0])
	}
	if err := json.Unmarshal(out.Results[1], &e1); err != nil || e1.Status != http.StatusBadRequest {
		t.Errorf("client-fault item: %s", out.Results[1])
	}
	var p report.Prediction
	if err := json.Unmarshal(out.Results[2], &p); err != nil || len(p.Comms) == 0 {
		t.Errorf("good item: %s", out.Results[2])
	}
}

// TestStatsInvariant: across single predicts, batches and catalog
// calls, errors (client + internal) can never exceed requests, and
// batch items are counted per item on both sides of the ledger.
func TestStatsInvariant(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheSize: 8})
	registerPanicModel(s)

	postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{Model: "gige", Name: "s1"}) // ok
	postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{Name: "bogus"})             // 400
	postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{Model: "boom", Name: "s1"}) // 500
	// A batch where every item fails: before the per-item accounting
	// fix, this pushed errors past requests (1 request, 3 errors).
	postJSON(t, ts.URL+"/v1/predict/batch", api.BatchRequest{Requests: []api.PredictRequest{
		{Name: "bogus"},
		{Model: "nope", Name: "s1"},
		{Model: "boom", Name: "s1"},
	}})
	get(t, ts.URL+"/v1/models")
	postJSON(t, ts.URL+"/v1/predict/batch", api.BatchRequest{}) // rejected envelope: 1 request, 1 error

	st := s.Snapshot()
	if st.Requests != 8 {
		t.Errorf("requests = %d, want 8 (3 predicts + 3 batch items + models + rejected batch)", st.Requests)
	}
	if st.BatchItems != 3 {
		t.Errorf("batch_items = %d, want 3", st.BatchItems)
	}
	if st.ClientErrors != 4 {
		t.Errorf("client_errors = %d, want 4", st.ClientErrors)
	}
	if st.InternalErrors != 2 {
		t.Errorf("internal_errors = %d, want 2", st.InternalErrors)
	}
	if st.Errors != st.ClientErrors+st.InternalErrors {
		t.Errorf("errors = %d, want client+internal = %d", st.Errors, st.ClientErrors+st.InternalErrors)
	}
	if st.Errors > st.Requests {
		t.Errorf("invariant violated: errors %d > requests %d", st.Errors, st.Requests)
	}
}

// TestPredictGetStrictQuery: the GET grammar must reject unknown keys,
// duplicates and malformed values — silently dropping a typo like
// ?refrate= would return a confidently wrong prediction — and must
// support ref_rate, which POST has always honored.
func TestPredictGetStrictQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheSize: 8})
	bad := []string{
		"/v1/predict?name=s1&static=yes",
		"/v1/predict?name=s1&refrate=1e9",
		"/v1/predict?name=s1&ref_rate=abc",
		"/v1/predict?name=s1&ref_rate=",
		"/v1/predict?name=s1&name=s2",
		"/v1/predict?name=s1&format=xml",
		"/v1/predict?name=s1&mode=gige",
	}
	for _, q := range bad {
		code, body := get(t, ts.URL+q)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", q, code, body)
		}
	}
	// ref_rate on GET works and matches the POST equivalent: the second
	// call is a cache hit only if both keyed the cache identically.
	code, body := get(t, ts.URL+"/v1/predict?name=s4&model=gige&ref_rate=2e9&static=1")
	if code != http.StatusOK {
		t.Fatalf("GET with ref_rate: status %d: %s", code, body)
	}
	var viaGet report.Prediction
	if err := json.Unmarshal(body, &viaGet); err != nil {
		t.Fatal(err)
	}
	if viaGet.RefRate != 2e9 || viaGet.Cached {
		t.Fatalf("GET prediction: ref_rate %g cached %v", viaGet.RefRate, viaGet.Cached)
	}
	code, body = postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{Name: "s4", RefRate: 2e9, Static: true})
	if code != http.StatusOK {
		t.Fatalf("POST twin: status %d: %s", code, body)
	}
	var viaPost report.Prediction
	if err := json.Unmarshal(body, &viaPost); err != nil {
		t.Fatal(err)
	}
	if !viaPost.Cached || viaPost.RefRate != 2e9 {
		t.Errorf("POST twin should hit the GET-seeded cache entry: %+v", viaPost)
	}
}
