package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"bwshare"
	"bwshare/internal/report"
)

func TestPercentileMinimumSamples(t *testing.T) {
	samples := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	if _, enough := percentile(samples(999), 0.99); enough {
		t.Error("p99 of 999 samples accepted; it needs ten samples beyond it")
	}
	v, enough := percentile(samples(1000), 0.99)
	if !enough || v != 990 {
		t.Errorf("p99 of 1..1000 = %v (enough %v), want 990", v, enough)
	}
	if v, enough := percentile(samples(20), 0.5); !enough || v != 10 {
		t.Errorf("p50 of 1..20 = %v (enough %v), want 10", v, enough)
	}
	if _, enough := percentile(samples(19), 0.5); enough {
		t.Error("p50 of 19 samples accepted; it needs ten samples beyond it")
	}
	if _, enough := percentile(nil, 0.5); enough {
		t.Error("p50 of no samples accepted")
	}
	// Chunked: 3,000 samples make three chunks of 1..1000; a burst
	// confined to the first moves its p99, not the median of the three
	// (the pooled p99 would be the burst).
	s := append(append(samples(1000), samples(1000)...), samples(1000)...)
	for i := 0; i < 100; i++ {
		s[i] = 1e9
	}
	if v, enough := chunkedPercentile(s, 0.99); !enough || v != 990 {
		t.Errorf("chunked p99 = %v (enough %v), want 990", v, enough)
	}
	if v, _ := percentile(s, 0.99); v != 1e9 {
		t.Errorf("pooled p99 = %v, want the burst", v)
	}
	if _, enough := chunkedPercentile(samples(999), 0.99); enough {
		t.Error("chunked p99 of 999 samples accepted")
	}
	// Failed requests are +Inf: eleven of 1,000 push p99 to infinity,
	// ten do not.
	for failed, wantInf := range map[int]bool{10: false, 11: true} {
		s := samples(1000)
		for i := 0; i < failed; i++ {
			s[i] = math.Inf(1)
		}
		v, _ := percentile(s, 0.99)
		if math.IsInf(v, 1) != wantInf {
			t.Errorf("%d failures: p99 = %v", failed, v)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{{10, 30}, {20, 50}, {90, 120}, {-5, 5}, {60, 60}}
	// Covered: [0,5] + [10,50] + [90,100] = 55.
	if got := selfTime(parent, children); got != 45 {
		t.Errorf("selfTime = %d, want 45", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
	tr := newTracer()
	outer := tr.begin("outer", "")
	a := tr.begin("inner", "")
	tr.end(a, "")
	b := tr.begin("inner", "")
	tr.end(b, "renamed")
	tr.end(outer, "")
	if tr.spans[a].Parent != outer || tr.spans[b].Parent != outer || tr.spans[b].Name != "renamed" {
		t.Errorf("spans %+v: want both inner spans under outer, the second renamed", tr.spans)
	}
	s := tr.spans[outer]
	want := float64(s.End-s.Start-(tr.spans[a].End-tr.spans[a].Start)-(tr.spans[b].End-tr.spans[b].Start)) / 1e3
	if got := tr.selfUS("outer"); len(got) != 1 || math.Abs(got[0]-want) > 1e-9 {
		t.Errorf("selfUS(outer) = %v, want [%v]", got, want)
	}
}

// renderOps serializes a generator's set-up and first ops.
func renderOps(w workload, n int) []byte {
	var buf bytes.Buffer
	for _, r := range w.setup() {
		fmt.Fprintf(&buf, "%s %s %s\n", r.method, r.path, r.body)
	}
	for i := 0; i < n; i++ {
		for _, r := range w.op(i).reqs {
			fmt.Fprintf(&buf, "%s %s %s\n", r.method, r.path, r.body)
		}
	}
	return buf.Bytes()
}

// renderTraces serializes the replay workload's traces.
func renderTraces(t *testing.T, seed int64) []byte {
	var buf bytes.Buffer
	for _, c := range newTraceSet(seed) {
		if err := bwshare.WriteTrace(&buf, c.trace); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestSeedDeterminesInputs(t *testing.T) {
	gens := map[string]func(int64) workload{
		"serve-cached":  func(s int64) workload { return newCachedGen(s) },
		"serve-compute": func(s int64) workload { return newComputeGen(s) },
	}
	for name, gen := range gens {
		a, b, c := renderOps(gen(7), 300), renderOps(gen(7), 300), renderOps(gen(8), 300)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave different requests twice", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same requests", name)
		}
	}
	a, b, c := renderTraces(t, 7), renderTraces(t, 7), renderTraces(t, 8)
	if !bytes.Equal(a, b) {
		t.Error("replay: seed 7 gave different traces twice")
	}
	if bytes.Equal(a, c) {
		t.Error("replay: seeds 7 and 8 gave the same traces")
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One connection at 100 ops/s; op 0 takes 50 ms, so ops 1-4, due
	// every 10 ms meanwhile, wait behind it and are charged the wait.
	// Op 7 fails and counts as infinitely slow.
	run := func(_, index int, due time.Time, rc *recorder) {
		if index == 0 {
			time.Sleep(50 * time.Millisecond)
		}
		o := outcome{opIndex: index, status: 200}
		if index == 7 {
			o.status = 503
		}
		rc.add(o, float64(time.Since(due))/1e3)
	}
	res := openLoop(run, 0, 1, 100, 200*time.Millisecond, 0)
	if res.attempted != 20 || res.failed != 1 || len(res.lagUS) != 20 {
		t.Fatalf("attempted %d failed %d lag samples %d, want 20, 1, 20", res.attempted, res.failed, len(res.lagUS))
	}
	byIndex := make(map[int]float64)
	for i, o := range res.latencyUS {
		byIndex[i] = o
	}
	// Outcomes arrive in op order on one connection.
	if byIndex[1] < 35e3 {
		t.Errorf("op 1 latency %v us: the wait behind op 0 (about 40 ms) is missing", byIndex[1])
	}
	if !math.IsInf(byIndex[7], 1) {
		t.Errorf("failed op latency %v, want +Inf", byIndex[7])
	}
	for _, lag := range res.lagUS {
		if lag < 0 {
			t.Errorf("negative generator lag %v", lag)
		}
	}
	if max(res.lagUS[1], res.lagUS[2]) > 30e3 {
		t.Errorf("generator lag %v us: the dispatcher must not wait for busy connections", res.lagUS[1:3])
	}
}

func TestClosedLoopMetersCPUPerSuccess(t *testing.T) {
	// One connection whose ops take 2 ms, metered by a clock that
	// charges wall time as CPU time: every window must show about 2 ms
	// per success, and a 2.4 s loop must be split into two windows.
	run := func(_, index int, due time.Time, rc *recorder) {
		time.Sleep(2 * time.Millisecond)
		rc.add(outcome{opIndex: index, status: 200}, float64(time.Since(due))/1e3)
	}
	t0 := time.Now()
	wall := func() (float64, error) { return time.Since(t0).Seconds(), nil }
	res := closedLoop(run, 0, 1, 2400*time.Millisecond, 0, wall)
	if len(res.cpuUS) != 2 {
		t.Fatalf("%d CPU windows %v, want 2", len(res.cpuUS), res.cpuUS)
	}
	for _, us := range res.cpuUS {
		if us < 1900 || us > 4000 {
			t.Errorf("CPU per success %v us, want about 2,000", us)
		}
	}
	if res.failed != 0 {
		t.Errorf("%d failed", res.failed)
	}
}

func TestGaugeScalesCPUTimesToReferenceSpeed(t *testing.T) {
	// A host at half the reference speed: the yardstick takes twice
	// yardstickRefS, so the CPU times halve and the measured ones stay
	// under ".raw"; other figures are left alone.
	g := &speedGauge{samples: []float64{2 * yardstickRefS, 2 * yardstickRefS, 9 * yardstickRefS}}
	res := newResult()
	res.set("cpu_us_per_req", 1000, "us", 0)
	res.set("predict_replay_s", 2, "s", 0)
	res.set("peak_rss_mb", 3, "MB", 0)
	g.report(res)
	for name, want := range map[string]float64{
		"cpu_us_per_req": 500, "cpu_us_per_req.raw": 1000,
		"predict_replay_s": 1, "predict_replay_s.raw": 2,
		"peak_rss_mb": 3, "bench.yardstick_us": 2e6 * yardstickRefS,
	} {
		if got := res.metrics[name].Value; !relClose(got, want, 1e-12) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if _, found := res.metrics["substrate_replay_s.raw"]; found {
		t.Error("an unmeasured metric gained a .raw twin")
	}
	// The yardstick itself is fixed work that allocates nothing once
	// made: two runs give the same value.
	y := newYardstick()
	first := y.run()
	if allocs := testing.AllocsPerRun(3, func() { y.run() }); allocs != 0 {
		t.Errorf("yardstick allocates %v times a run", allocs)
	}
	if again := y.run(); again != first {
		t.Errorf("yardstick gave %v, then %v", first, again)
	}
}

func TestTracedPassMatchesUntraced(t *testing.T) {
	for _, w := range []workload{newCachedGen(3), newComputeGen(3)} {
		plain, err := runServingPass(w, nil, 60, 0)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runServingPass(w, newTracer(), 60, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !equalDigests(plain.outputs, traced.outputs) || len(plain.outputs) == 0 {
			t.Errorf("%s: traced pass answered differently (%d vs %d answers)", workloadName(w), len(plain.outputs), len(traced.outputs))
		}
	}
	set := []*composite{newComposite(newRNG(3, 0), 4, 0)}
	plain, err := runReplayPass(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runReplayPass(set, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(plain.outputs) != fmt.Sprint(traced.outputs) || traced.pred.advances == 0 || traced.model.calls == 0 {
		t.Error("traced replay differs from the untraced replay, or recorded nothing")
	}
}

// predictionJSON renders p as the worker would, with every time scaled.
func predictionJSON(t *testing.T, p prediction, scale float64) []byte {
	times := make([]float64, len(p.times))
	for i, v := range p.times {
		times[i] = v * scale
	}
	doc := report.BuildPrediction(p.rv.model.Name(), !p.rv.static, p.rv.ref, p.rv.g, p.pen, times)
	if !p.rv.topo.Trivial() {
		doc.Topology = p.rv.topo.String()
		doc.Links = report.BuildLinkUtil(p.rv.topo, p.rv.g, times, p.rv.ref)
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestChecksCatchWrongAnswers(t *testing.T) {
	g := newComputeGen(5)
	var req request
	for i := 0; req.class != "comms" && req.class != "scheme"; i++ {
		req = g.op(i).reqs[0]
	}
	p, err := predictInProcess(req.items[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPredict(&req, predictionJSON(t, p, 1), map[*predictItem]prediction{}); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	if err := checkPredict(&req, predictionJSON(t, p, 1+1e-6), map[*predictItem]prediction{}); err == nil {
		t.Error("an answer off by 1e-6 relative passed the check")
	}
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
		if rate := fmt.Sprintf("%g/s", openRate[w.Name]); !strings.Contains(w.Why, rate) {
			t.Errorf("%s: why %q does not name the open-loop rate %s", w.Name, w.Why, rate)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d end-to-end and %d per-layer metrics, want %d and %d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range doc.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d is %+v, want %+v", i, m, d)
		}
	}
	for i, m := range doc.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d is %+v, want %+v", i, m, d)
		}
	}
}
