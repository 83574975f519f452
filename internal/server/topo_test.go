package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"bwshare/internal/api"
	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/report"
	"bwshare/internal/schemes"
	"bwshare/internal/topology"
)

// ftree24 is the fabric used across these tests: two 4-host edge
// switches behind a 4:1 oversubscribed fat-tree core.
var ftree24 = api.TopologyRequest{Kind: "fattree", Switches: 2, HostsPerSwitch: 4, Oversub: 4}

func TestPredictWithTopologyBlock(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, CacheSize: 8})
	req := api.PredictRequest{Model: "gige", Name: "s6", Topology: &ftree24}
	code, body := postJSON(t, ts.URL+"/v1/predict", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var p report.Prediction
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if p.Topology != "fattree 2x4 oversub 4 place block" {
		t.Errorf("topology field %q", p.Topology)
	}
	if len(p.Links) == 0 {
		t.Fatal("expected per-link utilization in the response")
	}
	for _, l := range p.Links {
		if l.Capacity <= 0 || l.Comms <= 0 || l.Dir == "" {
			t.Errorf("bad link record: %+v", l)
		}
	}
	// The oversubscribed fabric must slow the crossing communications
	// relative to the crossbar prediction.
	code, base := postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{Model: "gige", Name: "s6"})
	if code != http.StatusOK {
		t.Fatalf("baseline status %d", code)
	}
	var pb report.Prediction
	if err := json.Unmarshal(base, &pb); err != nil {
		t.Fatal(err)
	}
	if pb.Topology != "" || pb.Links != nil {
		t.Errorf("crossbar response must not carry topology fields: %s", base)
	}
	slower := false
	for i := range p.Comms {
		if p.Comms[i].Time > pb.Comms[i].Time*(1+1e-9) {
			slower = true
		}
		if p.Comms[i].Time < pb.Comms[i].Time*(1-1e-9) {
			t.Errorf("comm %d got faster on an oversubscribed fabric: %g vs %g",
				i, p.Comms[i].Time, pb.Comms[i].Time)
		}
	}
	if !slower {
		t.Error("4:1 oversubscription should slow at least one crossing communication")
	}
	// The second topology request is a cache hit with identical values.
	code, body2 := postJSON(t, ts.URL+"/v1/predict", req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var p2 report.Prediction
	if err := json.Unmarshal(body2, &p2); err != nil {
		t.Fatal(err)
	}
	if !p2.Cached {
		t.Error("repeat topology request should hit the cache")
	}
	p2.Cached = p.Cached
	a, _ := json.Marshal(p)
	b, _ := json.Marshal(p2)
	if !bytes.Equal(a, b) {
		t.Errorf("cached topology response differs:\n%s\n%s", a, b)
	}
}

// TestTopologyKeysCache: the same scheme under different fabrics (and
// under none) must occupy distinct cache entries — the PR-4 cache-key
// extension.
func TestTopologyKeysCache(t *testing.T) {
	s := New(Config{Workers: 1, CacheSize: 8})
	g, _ := schemes.Named("s6")
	ft := topology.Spec{Kind: topology.FatTree, Switches: 2, HostsPerSwitch: 4, Oversub: 4, Place: topology.Block}
	star := topology.Spec{Kind: topology.Star, Switches: 2, HostsPerSwitch: 4, Place: topology.Block}
	for i, topo := range []topology.Spec{{}, ft, star} {
		res, err := s.Predict(context.Background(), g, "gige", false, 0, topo, fault.Schedule{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Errorf("fabric %d: first request must miss", i)
		}
	}
	for i, topo := range []topology.Spec{{}, ft, star} {
		res, err := s.Predict(context.Background(), g, "gige", false, 0, topo, fault.Schedule{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Errorf("fabric %d: second request must hit", i)
		}
	}
}

func TestPredictSchemeTextTopologyHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheSize: 8})
	scheme := "topology: star 2x2\na: 0 -> 2\nb: 1 -> 3\n"
	code, body := postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{Scheme: scheme})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var p report.Prediction
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if p.Topology != "star 2x2 place block" || len(p.Links) == 0 {
		t.Errorf("header topology lost: %s", body)
	}
	// Header plus request block is ambiguous and rejected.
	code, body = postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{Scheme: scheme, Topology: &ftree24})
	if code != http.StatusBadRequest || !bytes.Contains(body, []byte("topology")) {
		t.Errorf("conflicting topologies: %d %s", code, body)
	}
}

func TestPredictTopologyTextFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheSize: 8})
	data, _ := json.Marshal(api.PredictRequest{Model: "gige", Name: "s6", Topology: &ftree24})
	resp, err := http.Post(ts.URL+"/v1/predict?format=text", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	if !strings.Contains(out, "topology fattree 2x4 oversub 4 place block") ||
		!strings.Contains(out, "util") {
		t.Errorf("text format misses the link table:\n%s", out)
	}
}

func TestPredictTopologyErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheSize: 8})
	cases := []struct {
		name string
		req  api.PredictRequest
	}{
		{"unknown kind", api.PredictRequest{Name: "s1", Topology: &api.TopologyRequest{Kind: "torus", Switches: 2, HostsPerSwitch: 2}}},
		{"star with oversub", api.PredictRequest{Name: "s1", Topology: &api.TopologyRequest{Kind: "star", Switches: 2, HostsPerSwitch: 2, Oversub: 2}}},
		{"fattree without oversub", api.PredictRequest{Name: "s1", Topology: &api.TopologyRequest{Kind: "fattree", Switches: 2, HostsPerSwitch: 2}}},
		{"too few switches", api.PredictRequest{Name: "s1", Topology: &api.TopologyRequest{Kind: "star", Switches: 1, HostsPerSwitch: 2}}},
		{"oversized fabric", api.PredictRequest{Name: "s1", Topology: &api.TopologyRequest{Kind: "star", Switches: 1 << 20, HostsPerSwitch: 2}}},
		{"scheme does not fit", api.PredictRequest{Name: "s6", Topology: &api.TopologyRequest{Kind: "star", Switches: 2, HostsPerSwitch: 2}}},
		{"bad placement", api.PredictRequest{Name: "s1", Topology: &api.TopologyRequest{Kind: "star", Switches: 2, HostsPerSwitch: 2, Place: "diagonal"}}},
		{"static is crossbar-only", api.PredictRequest{Name: "s6", Static: true, Topology: &ftree24}},
	}
	for _, tc := range cases {
		code, body := postJSON(t, ts.URL+"/v1/predict", tc.req)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", tc.name, code, body)
		}
	}
}

// TestRefRateValidation: non-positive and non-finite reference rates are
// rejected at the boundary instead of producing garbage penalties
// (negative rates arrive via JSON; NaN and ±Inf survive flag parsing and
// direct API calls).
func TestRefRateValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheSize: 8})
	g, _ := schemes.Named("s1")
	for _, ref := range []float64{-1, math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, err := s.Predict(context.Background(), g, "gige", false, ref, topology.Spec{}, fault.Schedule{}); err == nil {
			t.Errorf("Predict accepted ref rate %g", ref)
		}
	}
	if _, err := s.Predict(context.Background(), g, "gige", false, 1e6, topology.Spec{}, fault.Schedule{}); err != nil {
		t.Errorf("positive finite ref rejected: %v", err)
	}
	code, body := postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{Name: "s1", RefRate: -5})
	if code != http.StatusBadRequest || !bytes.Contains(body, []byte("ref_rate")) {
		t.Errorf("negative ref over HTTP: %d %s", code, body)
	}
}

// TestCacheCollisionKeepsResident forces two distinct graphs onto one
// cache key (a hash collision) and checks the deterministic policy: the
// resident entry survives, the newcomer is dropped, and neither graph is
// ever served the other's values.
func TestCacheCollisionKeepsResident(t *testing.T) {
	c := newLRU(4)
	gA := graph.NewBuilder().Add("a", 0, 1, 1e6).MustBuild()
	gB := graph.NewBuilder().Add("b", 2, 3, 2e6).MustBuild()
	key := cacheKey{hash: 42, model: "gige"}
	penA := []float64{1}
	penB := []float64{9}
	c.put(&entry{key: key, g: gA, pen: penA})
	c.put(&entry{key: key, g: gB, pen: penB}) // collision: must not evict gA
	if e := c.get(key, keyOf(gA)); e == nil || &e.pen[0] != &penA[0] {
		t.Fatal("resident entry lost to a colliding newcomer")
	}
	if e := c.get(key, keyOf(gB)); e != nil {
		t.Fatal("collision served the wrong graph's entry")
	}
	// Alternating colliding puts stay deterministic: gA remains.
	for i := 0; i < 4; i++ {
		c.put(&entry{key: key, g: gB, pen: penB})
		c.put(&entry{key: key, g: gA, pen: penA})
	}
	if e := c.get(key, keyOf(gA)); e == nil || &e.pen[0] != &penA[0] {
		t.Fatal("resident entry churned under alternating collisions")
	}
	if c.len() != 1 {
		t.Fatalf("cache len %d, want 1", c.len())
	}
	// A same-graph re-put (recomputed identical values) still refreshes.
	penA2 := []float64{1}
	c.put(&entry{key: key, g: gA, pen: penA2})
	if e := c.get(key, keyOf(gA)); e == nil || &e.pen[0] != &penA2[0] {
		t.Fatal("same-graph re-put did not refresh the entry")
	}
}
