// Tests for the /v1/predict faults block and the per-request deadline.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"bwshare/internal/api"
	"bwshare/internal/report"
)

func intp(v int) *int { return &v }

// TestPredictWithFaultsBlock: a host slowed to half its NIC rate doubles
// the lone flow's completion time exactly, the degraded prediction is
// cached under its own key, and the healthy entry never aliases it.
func TestPredictWithFaultsBlock(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheSize: 16})
	comms := []api.CommRequest{{Src: 0, Dst: 1, Volume: 4e6}}
	healthyReq := api.PredictRequest{Model: "gige", Comms: comms}
	faultedReq := api.PredictRequest{Model: "gige", Comms: comms,
		Faults: []api.FaultRequest{{Kind: "host_slow", Host: intp(0), Factor: 0.5, At: 0}}}

	decode := func(code int, body []byte) report.Prediction {
		t.Helper()
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		var p report.Prediction
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	healthy := decode(postJSON(t, ts.URL+"/v1/predict", healthyReq))
	faulted := decode(postJSON(t, ts.URL+"/v1/predict", faultedReq))
	if faulted.Cached {
		t.Error("first degraded prediction must not be served from the healthy cache entry")
	}
	if want := 2 * healthy.Comms[0].Time; faulted.Comms[0].Time != want {
		t.Errorf("half-rate host: time %g, want exactly %g", faulted.Comms[0].Time, want)
	}
	again := decode(postJSON(t, ts.URL+"/v1/predict", faultedReq))
	if !again.Cached || again.Comms[0].Time != faulted.Comms[0].Time {
		t.Errorf("repeat degraded prediction: cached=%v time=%g, want cached hit with %g",
			again.Cached, again.Comms[0].Time, faulted.Comms[0].Time)
	}
	if h2 := decode(postJSON(t, ts.URL+"/v1/predict", healthyReq)); !h2.Cached || h2.Comms[0].Time != healthy.Comms[0].Time {
		t.Errorf("healthy prediction disturbed by degraded neighbor: %+v", h2)
	}
}

// TestPredictSchemeFaultHeaders: scheme text carrying topology: and
// fault: headers predicts the degraded fabric end to end.
func TestPredictSchemeFaultHeaders(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheSize: 16})
	scheme := "topology: star 4x4\na: 0 -> 5 8MB\n"
	faulted := "fault: link 0 degrade 0.25 at 0 until 1e9\n" + scheme
	run := func(src string) report.Prediction {
		t.Helper()
		code, body := postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{Model: "gige", Scheme: src})
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		var p report.Prediction
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	h, f := run(scheme), run(faulted)
	if f.Comms[0].Time <= h.Comms[0].Time {
		t.Errorf("degraded uplink should slow the cross-switch flow: healthy %g, faulted %g",
			h.Comms[0].Time, f.Comms[0].Time)
	}
}

// TestPredictFaultErrors: malformed or impossible fault schedules are
// rejected with 400 and an error naming the offending part.
func TestPredictFaultErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheSize: 16})
	comms := []api.CommRequest{{Src: 0, Dst: 1}}
	ftree := &api.TopologyRequest{Kind: "fattree", Switches: 2, HostsPerSwitch: 4, Oversub: 4}
	tooMany := make([]api.FaultRequest, api.MaxFaultEvents+1)
	var tooManyHeaders strings.Builder
	for i := range tooMany {
		tooMany[i] = api.FaultRequest{Kind: "host_slow", Host: intp(0), Factor: 0.5, At: float64(i)}
		fmt.Fprintf(&tooManyHeaders, "fault: host 0 slow 0.5 at %d\n", i)
	}
	tooManyHeaders.WriteString("a: 0 -> 1\n")
	cases := []struct {
		name string
		req  api.PredictRequest
		want string
	}{
		{"unknown kind",
			api.PredictRequest{Comms: comms, Faults: []api.FaultRequest{{Kind: "fire", Host: intp(0), At: 1}}},
			"unknown kind"},
		{"missing switch field",
			api.PredictRequest{Comms: comms, Topology: ftree, Faults: []api.FaultRequest{{Kind: "link_down", At: 1}}},
			`need a \"switch\" field`},
		{"host fault with switch field",
			api.PredictRequest{Comms: comms, Faults: []api.FaultRequest{{Kind: "host_slow", Switch: intp(0), Factor: 0.5, At: 1}}},
			"takes a host"},
		{"link fault on crossbar",
			api.PredictRequest{Comms: comms, Faults: []api.FaultRequest{{Kind: "link_down", Switch: intp(0), At: 1, Until: 2}}},
			"no uplinks"},
		{"missing switch in fabric",
			api.PredictRequest{Comms: comms, Topology: ftree, Faults: []api.FaultRequest{{Kind: "link_down", Switch: intp(9), At: 1, Until: 2}}},
			"switch 9 does not exist"},
		{"scheme headers plus faults block",
			api.PredictRequest{Scheme: "fault: host 0 slow 0.5 at 1\na: 0 -> 1\n",
				Faults: []api.FaultRequest{{Kind: "host_slow", Host: intp(0), Factor: 0.5, At: 1}}},
			"drop the request's faults block"},
		{"static with faults",
			api.PredictRequest{Comms: comms, Static: true,
				Faults: []api.FaultRequest{{Kind: "host_slow", Host: intp(0), Factor: 0.5, At: 1}}},
			"static prediction cannot model faults"},
		{"permanent zero capacity",
			api.PredictRequest{Comms: comms,
				Faults: []api.FaultRequest{{Kind: "host_slow", Host: intp(0), Factor: 0, At: 1}}},
			"permanent zero-capacity"},
		{"oversized schedule",
			api.PredictRequest{Comms: comms, Faults: tooMany},
			fmt.Sprintf("limit %d", api.MaxFaultEvents)},
		{"oversized header schedule",
			api.PredictRequest{Scheme: tooManyHeaders.String()},
			fmt.Sprintf("schedule of %d faults exceeds limit %d", api.MaxFaultEvents+1, api.MaxFaultEvents)},
		// A crossbar bounds no host id; the node-id limit does.
		{"host beyond node-id limit",
			api.PredictRequest{Comms: comms, Faults: []api.FaultRequest{{Kind: "host_slow", Host: intp(1 << 22), Factor: 0.5, At: 1}}},
			fmt.Sprintf("host %d exceeds limit %d", 1<<22, api.MaxNodeID-1)},
		{"header host beyond node-id limit",
			api.PredictRequest{Scheme: "fault: host 4194304 slow 0.5 at 1\na: 0 -> 1\n"},
			fmt.Sprintf("host %d exceeds limit %d", 1<<22, api.MaxNodeID-1)},
	}
	for _, c := range cases {
		code, body := postJSON(t, ts.URL+"/v1/predict", c.req)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", c.name, code, body)
			continue
		}
		if !strings.Contains(string(body), c.want) {
			t.Errorf("%s: error %s does not mention %q", c.name, body, c.want)
		}
	}
}

// TestRequestTimeout503: with the single worker held hostage, a request
// cannot acquire a simulation slot inside its deadline and is answered
// 503; once the worker returns, the identical request succeeds.
func TestRequestTimeout503(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheSize: 16, RequestTimeout: 20 * time.Millisecond})
	w := <-s.pool // wedge the service: no worker can be acquired
	req := api.PredictRequest{Model: "gige", Name: "s4"}
	code, body := postJSON(t, ts.URL+"/v1/predict", req)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("wedged service: status %d, want 503: %s", code, body)
	}
	if !strings.Contains(string(body), "no prediction worker") {
		t.Errorf("error should name the starved resource: %s", body)
	}
	if st := s.Snapshot(); st.InternalErrors != 1 {
		t.Errorf("a 503 is a service-side error: %+v", st)
	}
	s.pool <- w
	if code, body := postJSON(t, ts.URL+"/v1/predict", req); code != http.StatusOK {
		t.Fatalf("recovered service: status %d: %s", code, body)
	}
}

// TestOverloadRetryAfter: every 503 — worker-pool saturation or a
// request deadline — carries a Retry-After hint so well-behaved clients
// back off instead of hammering a saturated pool. The gateway tier's
// admission 429s reuse the same helper, keeping the hint's shape
// uniform across tiers.
func TestOverloadRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheSize: 16, RequestTimeout: 20 * time.Millisecond})
	w := <-s.pool // wedge the service: no worker can be acquired
	defer func() { s.pool <- w }()
	body, err := json.Marshal(api.PredictRequest{Model: "gige", Name: "s4"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("wedged service: status %d, want 503", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("a 503 must carry a Retry-After hint")
	}
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Errorf("Retry-After must be whole seconds >= 1, got %q", ra)
	}
}

// TestRequestTimeoutDisabled: a negative configured timeout leaves the
// request context unbounded.
func TestRequestTimeoutDisabled(t *testing.T) {
	s := New(Config{Workers: 1, RequestTimeout: -1})
	ctx, cancel := s.requestCtx(t.Context())
	defer cancel()
	if _, ok := ctx.Deadline(); ok {
		t.Error("negative RequestTimeout must disable the deadline")
	}
	s = New(Config{Workers: 1})
	ctx2, cancel2 := s.requestCtx(t.Context())
	defer cancel2()
	if d, ok := ctx2.Deadline(); !ok || time.Until(d) > DefaultRequestTimeout {
		t.Errorf("zero RequestTimeout must pick the %v default, got %v ok=%v", DefaultRequestTimeout, d, ok)
	}
}
