package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"bwshare/internal/api"
)

// doJSON issues a request with a JSON body and returns status + body.
func doJSON(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var reader *strings.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reader = strings.NewReader(string(data))
	} else {
		reader = strings.NewReader("")
	}
	req, err := http.NewRequest(method, url, reader)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
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

// TestClusterLifecycleHTTP drives the whole cluster API end to end:
// create, inspect, admit, rank, evict, delete.
func TestClusterLifecycleHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, CacheSize: 8})
	base := ts.URL + "/v1/clusters"

	code, body := postJSON(t, base, api.ClusterRequest{
		Name:     "prod",
		Topology: &api.TopologyRequest{Kind: "fattree", Switches: 2, HostsPerSwitch: 4, Oversub: 4},
	})
	if code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", code, body)
	}
	var cd clusterDoc
	if err := json.Unmarshal(body, &cd); err != nil {
		t.Fatal(err)
	}
	if cd.Name != "prod" || cd.Hosts != 8 || cd.FreeHosts != 8 || cd.Model != "gige" {
		t.Fatalf("create doc: %+v", cd)
	}

	code, body = get(t, base)
	if code != http.StatusOK {
		t.Fatalf("list: status %d: %s", code, body)
	}
	var list struct {
		Clusters []clusterDoc `json:"clusters"`
	}
	if err := json.Unmarshal(body, &list); err != nil || len(list.Clusters) != 1 {
		t.Fatalf("list: %s", body)
	}
	if st := s.Snapshot(); st.Clusters != 1 {
		t.Errorf("stats clusters = %d, want 1", st.Clusters)
	}

	// Admit a neighbor-pair job: on this fat-tree block keeps every pair
	// intra-switch, so best-candidate admission must choose it.
	code, body = postJSON(t, base+"/prod/jobs", api.JobRequest{
		Name:   "ring",
		Scheme: "a: 0 -> 1\nb: 2 -> 3\nc: 4 -> 5\nd: 6 -> 7",
	})
	if code != http.StatusCreated {
		t.Fatalf("job create: status %d: %s", code, body)
	}
	var jd jobDoc
	if err := json.Unmarshal(body, &jd); err != nil {
		t.Fatal(err)
	}
	if jd.Strategy != "block" || jd.Tasks != 8 || jd.PredictedTime <= 0 {
		t.Fatalf("job doc: %+v", jd)
	}

	code, body = get(t, base+"/prod/jobs/ring")
	if code != http.StatusOK {
		t.Fatalf("job get: status %d: %s", code, body)
	}
	code, body = get(t, base+"/prod")
	var cd2 clusterDoc
	if err := json.Unmarshal(body, &cd2); err != nil || code != http.StatusOK {
		t.Fatalf("cluster get: %d %s", code, body)
	}
	if cd2.FreeHosts != 0 || len(cd2.Jobs) != 1 {
		t.Fatalf("occupancy: %+v", cd2)
	}

	// A full cluster rejects placements with 409.
	code, body = postJSON(t, base+"/prod/placements", api.PlacementsRequest{
		Comms: []api.CommRequest{{Src: 0, Dst: 1}},
	})
	if code != http.StatusConflict {
		t.Fatalf("placements on full cluster: status %d: %s", code, body)
	}

	// Evict, then rank: block must beat roundrobin for neighbor pairs.
	if code, body = doJSON(t, http.MethodDelete, base+"/prod/jobs/ring", nil); code != http.StatusOK {
		t.Fatalf("job delete: status %d: %s", code, body)
	}
	code, body = postJSON(t, base+"/prod/placements", api.PlacementsRequest{
		Scheme: "a: 0 -> 1\nb: 2 -> 3\nc: 4 -> 5\nd: 6 -> 7",
		Seeds:  1,
	})
	if code != http.StatusOK {
		t.Fatalf("placements: status %d: %s", code, body)
	}
	var pl struct {
		Cluster    string         `json:"cluster"`
		Candidates []candidateDoc `json:"candidates"`
	}
	if err := json.Unmarshal(body, &pl); err != nil {
		t.Fatal(err)
	}
	if pl.Cluster != "prod" || len(pl.Candidates) != 4 {
		t.Fatalf("placements doc: %s", body)
	}
	if best := pl.Candidates[0]; best.Strategy != "block" || best.CoreCrossings != 0 {
		t.Errorf("best candidate = %+v, want intra-switch block", best)
	}
	for _, c := range pl.Candidates {
		if c.Strategy == "roundrobin" && (c.CoreCrossings != 4 || c.JobTime <= pl.Candidates[0].JobTime) {
			t.Errorf("roundrobin candidate = %+v, want 4 crossings and a slower time", c)
		}
	}

	if code, body = doJSON(t, http.MethodDelete, base+"/prod", nil); code != http.StatusOK {
		t.Fatalf("cluster delete: status %d: %s", code, body)
	}
	if code, _ = get(t, base+"/prod"); code != http.StatusNotFound {
		t.Errorf("get after delete: status %d, want 404", code)
	}
	if st := s.Snapshot(); st.Clusters != 0 {
		t.Errorf("stats clusters = %d, want 0", st.Clusters)
	}
}

// TestClusterAPIErrors maps each fleet failure mode to its status code.
func TestClusterAPIErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheSize: 8})
	base := ts.URL + "/v1/clusters"
	if code, _ := postJSON(t, base, api.ClusterRequest{Name: "small", Hosts: 2}); code != http.StatusCreated {
		t.Fatal("seed cluster")
	}
	cases := []struct {
		name   string
		method string
		url    string
		body   any
		want   int
	}{
		{"bad cluster name", http.MethodPost, base, api.ClusterRequest{Name: "Bad!", Hosts: 2}, http.StatusBadRequest},
		{"crossbar without hosts", http.MethodPost, base, api.ClusterRequest{Name: "x"}, http.StatusBadRequest},
		{"duplicate cluster", http.MethodPost, base, api.ClusterRequest{Name: "small", Hosts: 2}, http.StatusConflict},
		{"unknown topology kind", http.MethodPost, base, api.ClusterRequest{Name: "x", Topology: &api.TopologyRequest{Kind: "mesh"}}, http.StatusBadRequest},
		{"fault host beyond node-id limit", http.MethodPost, base, api.ClusterRequest{Name: "x", Hosts: 2,
			Faults: []api.FaultRequest{{Kind: "host_slow", Host: intp(1 << 22), Factor: 0.5, At: 1}}}, http.StatusBadRequest},
		{"unknown cluster get", http.MethodGet, base + "/nope", nil, http.StatusNotFound},
		{"unknown cluster delete", http.MethodDelete, base + "/nope", nil, http.StatusNotFound},
		{"unknown cluster job", http.MethodPost, base + "/nope/jobs", api.JobRequest{Name: "j", Catalog: "s1"}, http.StatusNotFound},
		{"unknown job", http.MethodGet, base + "/small/jobs/nope", nil, http.StatusNotFound},
		{"job without scheme", http.MethodPost, base + "/small/jobs", api.JobRequest{Name: "j"}, http.StatusBadRequest},
		{"job two scheme forms", http.MethodPost, base + "/small/jobs", api.JobRequest{Name: "j", Catalog: "s1", Scheme: "a: 0 -> 1"}, http.StatusBadRequest},
		{"scheme text smuggles topology", http.MethodPost, base + "/small/jobs", api.JobRequest{Name: "j", Scheme: "topology: star 2x2\na: 0 -> 1"}, http.StatusBadRequest},
		{"bad strategy", http.MethodPost, base + "/small/jobs", api.JobRequest{Name: "j", Comms: []api.CommRequest{{Src: 0, Dst: 1}}, Strategy: "pack"}, http.StatusBadRequest},
		{"seeds out of range", http.MethodPost, base + "/small/placements", api.PlacementsRequest{Comms: []api.CommRequest{{Src: 0, Dst: 1}}, Seeds: 99}, http.StatusBadRequest},
		{"job too large", http.MethodPost, base + "/small/jobs", api.JobRequest{Name: "j", Comms: []api.CommRequest{{Src: 0, Dst: 2}}}, http.StatusConflict},
	}
	for _, tc := range cases {
		code, body := doJSON(t, tc.method, tc.url, tc.body)
		if code != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, code, tc.want, body)
		}
		var e api.ErrorBody
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: not an error envelope: %s", tc.name, body)
		}
	}
}

// TestClusterJobFromCatalog admits a catalog scheme and checks host
// accounting across a second admission.
func TestClusterJobFromCatalog(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheSize: 8})
	base := ts.URL + "/v1/clusters"
	if code, body := postJSON(t, base, api.ClusterRequest{Name: "c", Hosts: 16}); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	code, body := postJSON(t, base+"/c/jobs", api.JobRequest{Name: "cat", Catalog: "s4"})
	if code != http.StatusCreated {
		t.Fatalf("catalog job: %d %s", code, body)
	}
	var jd jobDoc
	if err := json.Unmarshal(body, &jd); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, h := range jd.Hosts {
		if h < 0 || h >= 16 || seen[h] {
			t.Fatalf("bad host assignment: %+v", jd)
		}
		seen[h] = true
	}
	code, body = get(t, base+"/c/jobs")
	if code != http.StatusOK {
		t.Fatalf("job list: %d %s", code, body)
	}
	var jl struct {
		Jobs []jobDoc `json:"jobs"`
	}
	if err := json.Unmarshal(body, &jl); err != nil || len(jl.Jobs) != 1 || jl.Jobs[0].Name != "cat" {
		t.Fatalf("job list: %s", body)
	}
	// Strategy pinning is honored verbatim.
	code, body = postJSON(t, base+"/c/jobs", api.JobRequest{
		Name:     "pinned",
		Comms:    []api.CommRequest{{Src: 0, Dst: 1}},
		Strategy: "random:3",
	})
	if code != http.StatusCreated {
		t.Fatalf("pinned job: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &jd); err != nil || jd.Strategy != "random:3" {
		t.Fatalf("pinned job doc: %s", body)
	}
}
