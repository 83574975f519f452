package main

import (
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"bwshare/internal/api"
)

// rng is a splitmix64 generator. Every op of a workload seeds its own
// stream from (seed, op index), so op i is the same whatever ran before
// it, and the inputs never depend on math/rand or on the repository's
// own generators (internal/randgen, internal/loadgen).
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ (stream+1)*0xD1B54A32D192ED03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a value in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// volume returns a whole number of bytes between lo and hi megabytes.
func (r *rng) volume(loMB, hiMB int) float64 {
	return float64(r.between(loMB*1000, hiMB*1000)) * 1000
}

// fatTree is the oversubscribed 4x4 fat-tree the fabric shares of both
// serving workloads run on.
var fatTree = api.TopologyRequest{Kind: "fattree", Switches: 4, HostsPerSwitch: 4, Oversub: 2}

// catalogNames are the built-in schemes of the paper (GET /v1/predict).
var catalogNames = []string{"s1", "s2", "s3", "s4", "s5", "s6", "fig4", "fig5", "mk1", "mk2"}

// predictItem is one prediction input. It renders to the request forms
// of the API (catalog GET, structured comms, scheme text) and holds the
// plain values the output checks rebuild the prediction from.
type predictItem struct {
	model   string
	static  bool
	catalog string // catalog scheme name; the GET form
	text    bool   // scheme text instead of structured comms
	comms   []api.CommRequest
	topo    *api.TopologyRequest
	faults  []api.FaultRequest
}

// dto returns the JSON request body form of the item.
func (it *predictItem) dto() api.PredictRequest {
	req := api.PredictRequest{Model: it.model, Static: it.static, Name: it.catalog, Topology: it.topo, Faults: it.faults}
	if it.catalog == "" {
		if it.text {
			req.Scheme = it.schemeText()
		} else {
			req.Comms = it.comms
		}
	}
	return req
}

// schemeText renders the comms in the scheme description language.
func (it *predictItem) schemeText() string {
	var sb strings.Builder
	for _, c := range it.comms {
		fmt.Fprintf(&sb, "%s: %d -> %d %sB\n", c.Label, c.Src, c.Dst, strconv.FormatFloat(c.Volume, 'f', -1, 64))
	}
	return sb.String()
}

// query returns the GET /v1/predict query of a catalog item.
func (it *predictItem) query(text bool) string {
	q := url.Values{"name": {it.catalog}, "model": {it.model}}
	if it.static {
		q.Set("static", "true")
	}
	if text {
		q.Set("format", "text")
	}
	return q.Encode()
}

// randomComms draws n communications over nodes [0, nodes). maxDeg > 0
// bounds every node's in- and out-degree (the paper-sized schemes the
// Myrinet model enumerates cheaply); labels are prefix + index, so a
// prefix unique to the op makes the scheme a key never seen before.
func randomComms(r *rng, prefix string, n, nodes, maxDeg int) []api.CommRequest {
	out := make([]api.CommRequest, 0, n)
	outDeg := make([]int, nodes)
	inDeg := make([]int, nodes)
	for tries := 0; len(out) < n && tries < 50*n; tries++ {
		src, dst := r.intn(nodes), r.intn(nodes)
		if src == dst || maxDeg > 0 && (outDeg[src] >= maxDeg || inDeg[dst] >= maxDeg) {
			continue
		}
		outDeg[src]++
		inDeg[dst]++
		out = append(out, api.CommRequest{
			Label:  prefix + strconv.Itoa(len(out)),
			Src:    src,
			Dst:    dst,
			Volume: r.volume(1, 40),
		})
	}
	return out
}

// request is one HTTP request of a workload, with what the output
// checks need to recompute its answer in-process.
type request struct {
	method string
	path   string // path and query
	body   []byte
	class  string
	items  []*predictItem // predictions carried, in order
	fleet  *fleetOp
}

// op is the unit a connection executes: one request, or an admit/evict
// pair that must run in order on one connection.
type op struct{ reqs []request }

// fleetOp is a cluster operation of serve-compute.
type fleetOp struct {
	kind    string // "placements", "admit" or "evict"
	cluster string
	job     string
	comms   []api.CommRequest
	seeds   int
}

// workload generates a serving workload's inputs from its seed.
type workload interface {
	// setup returns the requests that prepare a fresh fleet: the cache
	// warm-up of serve-cached, or the clusters and resident jobs of
	// serve-compute. They run in order on one connection.
	setup() []request
	// op returns op i of the stream; the same (seed, i) gives the same op.
	op(i int) op
	// gateway reports whether the workload runs behind bwgate.
	gateway() bool
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("perfbench: encoding a generated request: " + err.Error())
	}
	return b
}

// predictRequest renders item as POST /v1/predict (text selects
// ?format=text), or as the GET form for a catalog item.
func predictRequest(it *predictItem, text bool) request {
	if it.catalog != "" {
		class := "catalog"
		if text {
			class = "text"
		}
		return request{method: "GET", path: "/v1/predict?" + it.query(text), class: class, items: []*predictItem{it}}
	}
	class, path := "comms", "/v1/predict"
	if it.text {
		class = "scheme"
	}
	if text {
		class, path = "text", "/v1/predict?format=text"
	}
	return request{method: "POST", path: path, body: mustJSON(it.dto()), class: class, items: []*predictItem{it}}
}

// batchRequest renders items as one POST /v1/predict/batch.
func batchRequest(items []*predictItem) request {
	b := api.BatchRequest{Requests: make([]api.PredictRequest, len(items))}
	for i, it := range items {
		b.Requests[i] = it.dto()
	}
	return request{method: "POST", path: "/v1/predict/batch", body: mustJSON(b), class: "batch", items: items}
}

// cachedGen generates serve-cached: a fixed key set of catalog schemes
// and generated items, all warmed in set-up, requested in a seeded mix.
type cachedGen struct {
	seed    int64
	catalog []*predictItem
	items   []*predictItem
}

// cachedItems is the number of generated keys; with the 60 catalog keys
// the set exceeds one replica's 1,024-entry cache but fits two.
const cachedItems = 1440

func newCachedGen(seed int64) *cachedGen {
	g := &cachedGen{seed: seed}
	for _, name := range catalogNames {
		for _, m := range []string{"gige", "myrinet", "infiniband"} {
			for _, static := range []bool{false, true} {
				g.catalog = append(g.catalog, &predictItem{model: m, static: static, catalog: name})
			}
		}
	}
	r := newRNG(seed, 0)
	for i := 0; i < cachedItems; i++ {
		it := &predictItem{text: r.intn(2) == 0}
		prefix := "k" + strconv.Itoa(i) + "c"
		switch x := r.float(); {
		case x < 0.4:
			it.model = "gige"
		case x < 0.7:
			it.model = "infiniband"
		default:
			it.model = "myrinet"
		}
		onFabric := r.float() < 0.2
		nodes := 16
		if !onFabric {
			nodes = r.between(8, 40)
		}
		if it.model == "myrinet" {
			it.comms = randomComms(r, prefix, r.between(4, 16), nodes, 3)
		} else {
			it.comms = randomComms(r, prefix, r.between(4, 32), nodes, 0)
		}
		switch {
		case onFabric:
			topo := fatTree
			it.topo = &topo
			if r.float() < 0.5 {
				it.faults = linkFaults(r)
			}
		case r.float() < 0.1:
			it.faults = hostFaults(r, nodes)
		case r.float() < 0.1:
			it.static = true
		}
		g.items = append(g.items, it)
	}
	return g
}

// linkFaults draws a transient fault schedule on the fat-tree's uplinks.
func linkFaults(r *rng) []api.FaultRequest {
	sw := r.intn(fatTree.Switches)
	if r.intn(2) == 0 {
		return []api.FaultRequest{{Kind: "link_down", Switch: &sw, At: 0.005, Until: 0.02}}
	}
	return []api.FaultRequest{{Kind: "link_degrade", Switch: &sw, Factor: 0.25, At: 0, Until: 0.05}}
}

// hostFaults draws a transient NIC slowdown on a crossbar host.
func hostFaults(r *rng, nodes int) []api.FaultRequest {
	h := r.intn(nodes)
	return []api.FaultRequest{{Kind: "host_slow", Host: &h, Factor: 0.5, At: 0, Until: 0.03}}
}

func (g *cachedGen) gateway() bool { return true }

func (g *cachedGen) setup() []request {
	out := make([]request, 0, len(g.catalog)+len(g.items))
	for _, it := range g.catalog {
		out = append(out, predictRequest(it, false))
	}
	for _, it := range g.items {
		out = append(out, predictRequest(it, false))
	}
	return out
}

func (g *cachedGen) op(i int) op {
	r := newRNG(g.seed, 1<<40+uint64(i))
	pick := func() *predictItem { return g.items[r.intn(len(g.items))] }
	var req request
	switch x := r.float(); {
	case x < 0.45:
		req = predictRequest(pick(), false)
	case x < 0.60:
		req = predictRequest(g.catalog[r.intn(len(g.catalog))], false)
	case x < 0.80:
		if r.intn(2) == 0 {
			req = predictRequest(pick(), true)
		} else {
			req = predictRequest(g.catalog[r.intn(len(g.catalog))], true)
		}
	default:
		req = batchRequest([]*predictItem{pick(), pick(), pick(), pick()})
	}
	return op{reqs: []request{req}}
}

// clusterDef is a long-lived cluster serve-compute creates in set-up.
type clusterDef struct {
	name      string
	model     string
	hosts     int
	topo      *api.TopologyRequest
	residents []fleetOp // admitted in set-up, in order
}

// computeGen generates serve-compute: fresh predictions that never
// repeat, beside placement rankings on read-only clusters and
// admit/evict pairs on write clusters.
type computeGen struct {
	seed   int64
	reads  []clusterDef
	writes []clusterDef
}

// jobComms draws a job's scheme over task ranks [0, tasks).
func jobComms(r *rng, tasks int) []api.CommRequest {
	return randomComms(r, "j", r.between(tasks, 2*tasks), tasks, 3)
}

func newComputeGen(seed int64) *computeGen {
	g := &computeGen{seed: seed}
	r := newRNG(seed, 0)
	mk := func(name, model string, hosts int, topo *api.TopologyRequest, nres int) clusterDef {
		c := clusterDef{name: name, model: model, hosts: hosts, topo: topo}
		for j := 0; j < nres; j++ {
			tasks := r.between(3, 6)
			c.residents = append(c.residents, fleetOp{kind: "admit", cluster: name, job: "res" + strconv.Itoa(j), comms: jobComms(r, tasks)})
		}
		return c
	}
	ft := fatTree
	g.reads = []clusterDef{
		mk("rd-xbar", "gige", 32, nil, 3),
		mk("rd-fat", "gige", 0, &ft, 1),
		mk("rd-ib", "infiniband", 24, nil, 2),
	}
	for w := 0; w < 4; w++ {
		g.writes = append(g.writes, mk("wr-"+strconv.Itoa(w), "gige", 0, &ft, 1))
	}
	return g
}

func (g *computeGen) gateway() bool { return false }

func (g *computeGen) setup() []request {
	var out []request
	for _, c := range append(append([]clusterDef(nil), g.reads...), g.writes...) {
		body := api.ClusterRequest{Name: c.name, Model: c.model, Hosts: c.hosts, Topology: c.topo}
		out = append(out, request{method: "POST", path: "/v1/clusters", body: mustJSON(body), class: "create"})
		for i := range c.residents {
			out = append(out, fleetRequest(&c.residents[i]))
		}
	}
	return out
}

// fleetRequest renders a cluster operation.
func fleetRequest(f *fleetOp) request {
	base := "/v1/clusters/" + f.cluster
	switch f.kind {
	case "placements":
		return request{method: "POST", path: base + "/placements", body: mustJSON(api.PlacementsRequest{Comms: f.comms, Seeds: f.seeds}), class: "placements", fleet: f}
	case "admit":
		return request{method: "POST", path: base + "/jobs", body: mustJSON(api.JobRequest{Name: f.job, Comms: f.comms, Seeds: f.seeds}), class: "admit", fleet: f}
	default:
		return request{method: "DELETE", path: base + "/jobs/" + f.job, class: "evict", fleet: f}
	}
}

// freshItem draws a prediction that no other op of the stream repeats:
// its labels carry the op index and position.
func freshItem(r *rng, prefix string) *predictItem {
	it := &predictItem{text: r.intn(2) == 0}
	switch x := r.float(); {
	case x < 0.5:
		it.model = []string{"gige", "infiniband"}[r.intn(2)]
		it.comms = randomComms(r, prefix, r.between(8, 64), r.between(8, 64), 0)
	case x < 0.79:
		it.model = []string{"myrinet", "kimlee"}[r.intn(2)]
		it.comms = randomComms(r, prefix, r.between(2, 16), r.between(4, 16), 3)
	default:
		it.model = []string{"gige", "infiniband"}[r.intn(2)]
		topo := fatTree
		it.topo = &topo
		it.comms = randomComms(r, prefix, r.between(8, 32), 16, 0)
		if r.intn(2) == 0 {
			it.faults = linkFaults(r)
		}
	}
	return it
}

func (g *computeGen) op(i int) op {
	r := newRNG(g.seed, 1<<40+uint64(i))
	prefix := "q" + strconv.Itoa(i) + "c"
	switch x := r.float(); {
	case x < 0.60:
		return op{reqs: []request{predictRequest(freshItem(r, prefix), false)}}
	case x < 0.70:
		items := make([]*predictItem, 4)
		for k := range items {
			items[k] = freshItem(r, "q"+strconv.Itoa(i)+"b"+strconv.Itoa(k)+"c")
		}
		return op{reqs: []request{batchRequest(items)}}
	case x < 0.85:
		c := g.reads[r.intn(len(g.reads))]
		f := &fleetOp{kind: "placements", cluster: c.name, comms: jobComms(r, r.between(4, 8)), seeds: r.intn(3)}
		return op{reqs: []request{fleetRequest(f)}}
	default:
		c := g.writes[r.intn(len(g.writes))]
		job := "op" + strconv.Itoa(i)
		admit := &fleetOp{kind: "admit", cluster: c.name, job: job, comms: jobComms(r, r.between(2, 4))}
		evict := &fleetOp{kind: "evict", cluster: c.name, job: job}
		return op{reqs: []request{fleetRequest(admit), fleetRequest(evict)}}
	}
}
