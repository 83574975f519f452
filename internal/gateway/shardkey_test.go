package gateway

import (
	"bufio"
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"bwshare/internal/api"
	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/schemelang"
	"bwshare/internal/topology"
)

// resolvedShardKey is the shard key as the gateway computed it before
// api.Key, from the resolved graph: the oracle FuzzRequestKey holds the
// graph-free key to, so routing stays as it was.
func resolvedShardKey(req api.PredictRequest) (uint64, error) {
	g, topo, sched, err := api.ResolveGraph(req)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	word(schemelang.Hash(g))
	h.Write([]byte(api.CanonicalModel(req.Model)))
	h.Write([]byte{0})
	if req.Static {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	word(math.Float64bits(req.RefRate))
	h.Write([]byte(topo.String()))
	h.Write([]byte{0})
	word(sched.Hash())
	return h.Sum64(), nil
}

// FuzzRequestKey holds api.Key to the resolution it replaces on any
// predict body that decodes: a request resolves exactly when
// ResolveGraph accepts it or graph.Builder alone rejects it; on one
// ResolveGraph accepts, the key's scheme hash is schemelang.Hash of the
// resolved graph, its fabric and schedule are the resolved ones, it
// matches the resolved graph and schedule as the key of that graph does
// (so every form of one graph shares a cache entry) and matches no
// graph differing in a label or a volume, Graph rebuilds an equal
// graph, and the shard key equals the graph-derived one. Seeded with
// the committed load replay log's request bodies.
func FuzzRequestKey(f *testing.F) {
	for _, body := range replayBodies(f) {
		f.Add(body)
	}
	for _, body := range []string{
		`{"name":"s4","model":"ib","static":true,"ref_rate":1.5e9}`,
		`{"name":"fig5","topology":{"kind":"star","switches":2,"hosts_per_switch":4},"faults":[{"kind":"link_down","switch":1,"at":0.01}]}`,
		`{"scheme":"topology: fattree 2x4 oversub 2\nfault: link 1 down at 0.05\na: 0 -> 4 20MB\nb: 1 -> 5\n"}`,
		`{"scheme":"a: 0 -> 1\na: 1 -> 2\n"}`,
		`{"comms":[{"label":"c1","src":0,"dst":1},{"src":1,"dst":2,"volume":3e6}]}`,
		`{"comms":[{"src":0,"dst":0}],"static":true}`,
		`{"comms":[{"src":0,"dst":70000}]}`,
		`{"name":"s1","scheme":"a: 0 -> 1"}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req api.PredictRequest
		if api.DecodeJSON(data, &req) != nil {
			return
		}
		var k api.Key
		keyErr := k.Resolve(&req)
		g, topo, sched, err := api.ResolveGraph(req)
		if err != nil {
			if keyErr != nil {
				return
			}
			if _, buildErr := k.Graph(); buildErr == nil {
				t.Fatalf("%s: the key resolves and builds, ResolveGraph fails: %v", data, err)
			}
			return
		}
		if keyErr != nil {
			t.Fatalf("%s: ResolveGraph accepts, the key fails: %v", data, keyErr)
		}
		if k.Scheme != schemelang.Hash(g) || k.Topo != topo || !k.Sched.Equal(sched) {
			t.Fatalf("%s: key %x %v %v, resolved %x %v %v", data, k.Scheme, k.Topo, k.Sched, schemelang.Hash(g), topo, sched)
		}
		if len(sched.Events) > 0 && k.Matches(g, fault.Schedule{}) {
			t.Fatalf("%s: a faulted key matches the healthy schedule", data)
		}
		var fromGraph api.Key
		fromGraph.SetGraph(g, topo, sched)
		if !k.Matches(g, sched) || !fromGraph.Matches(g, sched) || fromGraph.Scheme != k.Scheme {
			t.Fatalf("%s: the request's key does not match its own graph", data)
		}
		for _, change := range []func(*graph.Comm){
			func(c *graph.Comm) { c.Volume *= 2 },
			func(c *graph.Comm) { c.Label += "\x00" },
		} {
			comms := g.Comms()
			change(&comms[len(comms)-1])
			b := graph.NewBuilder()
			for _, c := range comms {
				b.Add(c.Label, c.Src, c.Dst, c.Volume)
			}
			if other, err := b.Build(); err == nil && k.Matches(other, sched) {
				t.Fatalf("%s: the key matches another graph:\n%s", data, other)
			}
		}
		built, err := k.Graph()
		if err != nil || !graph.Equal(built, g) {
			t.Fatalf("%s: Graph gives %v, %v", data, built, err)
		}
		want, _ := resolvedShardKey(req)
		if got := k.ShardKey(); got != want {
			t.Fatalf("%s: shard key %x, graph-derived %x", data, got, want)
		}
	})
}

// replayBodies returns the POST predict bodies of the committed load
// replay log, batch items one by one.
func replayBodies(f *testing.F) [][]byte {
	file, err := os.Open("../../scripts/testdata/load_replay.golden")
	if err != nil {
		f.Fatal(err)
	}
	defer file.Close()
	var out [][]byte
	sc := bufio.NewScanner(file)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rec struct {
			Method, Path string
			Body         json.RawMessage
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			f.Fatal(err)
		}
		switch {
		case rec.Method != "POST":
		case rec.Path == "/v1/predict/batch":
			var batch api.BatchRequest
			items, err := api.DecodeBatch(rec.Body, &batch)
			if err != nil {
				f.Fatal(err)
			}
			out = append(out, items...)
		case strings.HasPrefix(rec.Path, "/v1/predict"):
			out = append(out, rec.Body)
		}
	}
	if err := sc.Err(); err != nil {
		f.Fatal(err)
	}
	return out
}

// TestKeyFormsAgree: a catalog scheme asked for by name, as scheme text
// and as structured comms resolves to one key, on a fabric and under
// faults too, and the graph-free shard key is the graph-derived one.
func TestKeyFormsAgree(t *testing.T) {
	g := mustNamed(t, "fig4")
	var comms []api.CommRequest
	for _, c := range g.Comms() {
		comms = append(comms, api.CommRequest{Label: c.Label, Src: int(c.Src), Dst: int(c.Dst), Volume: c.Volume})
	}
	sw := 1
	fabric := &api.TopologyRequest{Kind: "star", Switches: 2, HostsPerSwitch: 4}
	faults := []api.FaultRequest{{Kind: "link_degrade", Switch: &sw, Factor: 0.5, At: 0.01}}
	for _, extra := range []func(*api.PredictRequest){
		func(*api.PredictRequest) {},
		func(r *api.PredictRequest) { r.Topology, r.Faults = fabric, faults },
	} {
		var keys []api.Key
		for _, req := range []api.PredictRequest{
			{Name: "fig4", Model: "ib"},
			{Scheme: schemelang.Canonical(g), Model: "infiniband"},
			{Comms: comms, Model: "infiniband"},
		} {
			extra(&req)
			var k api.Key
			if err := k.Resolve(&req); err != nil {
				t.Fatal(err)
			}
			want, err := resolvedShardKey(req)
			if err != nil || k.ShardKey() != want {
				t.Fatalf("%+v: shard key %x, graph-derived %x (%v)", req, k.ShardKey(), want, err)
			}
			keys = append(keys, k)
		}
		for i, k := range keys {
			if k.Scheme != keys[0].Scheme || !k.Matches(g, k.Sched) || k.ShardKey() != keys[0].ShardKey() {
				t.Fatalf("request form %d of one graph resolves to a different key", i)
			}
		}
	}
	var k api.Key
	k.SetGraph(g, topology.Spec{}, fault.Schedule{})
	if k.Scheme != schemelang.Hash(g) {
		t.Fatalf("SetGraph hash %x, schemelang.Hash %x", k.Scheme, schemelang.Hash(g))
	}
}

func mustNamed(t *testing.T, name string) *graph.Graph {
	t.Helper()
	req := api.PredictRequest{Name: name}
	g, _, _, err := api.ResolveGraph(req)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
