package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"bwshare/internal/api"
)

// TestBatchRenderingMatchesMarshalIndent holds the batch writer to the
// reflection rendering it replaced, json.MarshalIndent of
// {"results": [...]} plus a newline, byte for byte, on a mixed batch:
// catalog and structured predictions, a fabric with link records, and
// an embedded item error.
func TestBatchRenderingMatchesMarshalIndent(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, CacheSize: -1}) // every item computed, cached=false
	fabric := &api.TopologyRequest{Kind: "fattree", Switches: 2, HostsPerSwitch: 4, Oversub: 2}
	items := []api.PredictRequest{
		{Name: "s4"},
		{Model: "myrinet", Name: "fig5"},
		{Model: "gige", Comms: []api.CommRequest{{Label: "a<b>&", Src: 0, Dst: 5, Volume: 3e6}, {Src: 1, Dst: 6}, {Src: 2, Dst: 5}}, Topology: fabric},
		{Model: "no-such-model", Name: "s4"},
		{Name: "s6", Static: true, RefRate: 9.5e7},
	}
	results := make([]any, len(items))
	links := 0
	for i := range items {
		one := &items[i]
		g, topo, res, err := s.resolveAndPredict(context.Background(), one)
		if err != nil {
			results[i] = api.ErrorBody{Error: err.Error(), Status: statusFor(err)}
			continue
		}
		p := s.buildPrediction(one, g, topo, res)
		links += len(p.Links)
		results[i] = p
	}
	if links == 0 {
		t.Fatal("no item carries link records; the fabric item is not exercising them")
	}
	want, err := json.MarshalIndent(map[string]any{"results": results}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	code, got := postJSON(t, ts.URL+"/v1/predict/batch", api.BatchRequest{Requests: items})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("batch answer differs from MarshalIndent\ngot:\n%s\nwant:\n%s", got, want)
	}
}
