package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bwshare/internal/fault"
	"bwshare/internal/schemelang"
	"bwshare/internal/schemes"
	"bwshare/internal/topology"
)

// serve answers one request through the handler.
func serve(s *Server, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

// TestOneEntryPerGraph: the catalog name, the scheme text and the comms
// form of one graph resolve to one cache entry through the handler, and
// an in-process Predict of that graph is a hit on it too.
func TestOneEntryPerGraph(t *testing.T) {
	s := New(Config{Workers: 1, CacheSize: 8})
	g, _ := schemes.Named("fig4")
	var comms strings.Builder
	for i, c := range g.Comms() {
		if i > 0 {
			comms.WriteByte(',')
		}
		fmt.Fprintf(&comms, `{"label":%q,"src":%d,"dst":%d,"volume":%g}`, c.Label, c.Src, c.Dst, c.Volume)
	}
	text := strings.ReplaceAll(schemelang.Canonical(g), "\n", `\n`)
	for i, body := range []string{
		`{"name":"fig4","model":"ib"}`,
		`{"scheme":"` + text + `","model":"infiniband"}`,
		`{"comms":[` + comms.String() + `],"model":"infiniband"}`,
	} {
		rec := serve(s, "POST", "/v1/predict", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("form %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if cached := strings.Contains(rec.Body.String(), `"cached": true`); cached != (i > 0) {
			t.Fatalf("form %d: cached=%v, want %v\n%s", i, cached, i > 0, rec.Body)
		}
	}
	res, err := s.Predict(context.Background(), g, "infiniband", false, 0, topology.Spec{}, fault.Schedule{})
	if err != nil || !res.Cached {
		t.Fatalf("in-process Predict of the same graph: cached=%v, %v", res.Cached, err)
	}
	if st := s.Snapshot(); st.CacheHits != 3 || st.CacheMisses != 1 || st.CacheEntries != 1 {
		t.Errorf("hits=%d misses=%d entries=%d, want 3/1/1", st.CacheHits, st.CacheMisses, st.CacheEntries)
	}
}

// TestInvalidNeverHits: requests whose scheme is cached but which are
// invalid in another way — the model, the rate, static on a fabric, a
// graph the builder rejects, an error the full resolution reports
// before the one the key finds — never hit, and answer the exact 400
// body the full resolution gives.
func TestInvalidNeverHits(t *testing.T) {
	s := New(Config{Workers: 1, CacheSize: 8})
	if rec := serve(s, "POST", "/v1/predict", `{"name":"s4"}`); rec.Code != http.StatusOK {
		t.Fatalf("warm-up: %d %s", rec.Code, rec.Body)
	}
	for _, tc := range []struct{ body, want string }{
		{`{"name":"s4","model":"nope"}`,
			`{"error":"unknown model \"nope\" (see /v1/models)"}`},
		{`{"name":"s4","static":true,"topology":{"kind":"fattree","switches":2,"hosts_per_switch":4,"oversub":2}}`,
			`{"error":"static prediction is crossbar-only; drop static or the topology"}`},
		{`{"name":"s4","ref_rate":-1}`,
			`{"error":"ref_rate must be a positive finite rate in bytes/second, got -1"}`},
		{`{"comms":[{"label":"a","src":0,"dst":2},{"label":"a","src":0,"dst":2,"volume":1e7}]}`,
			`{"error":"graph: duplicate label \"a\""}`},
		{`{"comms":[{"src":1,"dst":1}],"model":"nope"}`,
			`{"error":"graph: communication \"c0\" is a self-loop on node 1"}`},
		{`{"scheme":"a: 0 -> 9\na: 1 -> 2\n","topology":{"kind":"star","switches":2,"hosts_per_switch":2}}`,
			`{"error":"schemelang: graph: duplicate label \"a\""}`},
		{`{"scheme":"topology: star 2x2\na: 0 -> 9\na: 1 -> 2\n"}`,
			`{"error":"schemelang: graph: duplicate label \"a\""}`},
	} {
		rec := serve(s, "POST", "/v1/predict", tc.body)
		if rec.Code != http.StatusBadRequest || rec.Body.String() != tc.want+"\n" {
			t.Errorf("%s: %d %q, want 400 %q", tc.body, rec.Code, rec.Body, tc.want)
		}
	}
	if st := s.Snapshot(); st.CacheHits != 0 || st.CacheMisses != 1 {
		t.Errorf("hits=%d misses=%d, want 0/1", st.CacheHits, st.CacheMisses)
	}
}
