package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"bwshare"
	"bwshare/internal/fleet"
)

// Serving-run constants.
const (
	// A run launches and prepares a fresh fleet at least minSetups
	// times, and more, up to maxSetups, while the set-ups have taken
	// less than setupBudget in all: a set-up of a few milliseconds is
	// then repeated often enough for its median to hold. setup_s is
	// the median of the CPU time the fleet's processes used from
	// launch to ready, and the last fleet is measured.
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2 * time.Second
	// checkOps is how many leading ops of each loop keep their answers
	// for the output checks; the closed loop's also form the sample of
	// pred_error_pct.
	checkOps = 1000
	// openBase numbers the open loop's ops apart from the closed loop's.
	openBase = 1 << 21
	// identitySample is how many serve-cached requests are compared
	// byte for byte through bwgate and direct.
	identitySample = 64
	// servingPasses is how many passes over the trace set a serving
	// round times: eight in a run give each trace's median as many
	// samples as the replay workload's passes give it.
	servingPasses = 2
)

// openRate is the open loop's offered rate in ops per second, about a
// tenth to a sixth of the workload's closed-loop throughput on a shared
// 2-core machine (BENCHMARK.json names it in each "why"). Half, on such
// a machine, queues whenever the host takes the CPU away for a while,
// and the percentiles no longer repeat from run to run. Each rate still
// gives the 1,000 samples a p99 needs in the open loop of a 25 s run
// (10 s when serving, 5 s on replay).
var openRate = map[string]float64{
	"serve-cached":    120,
	"serve-compute":   110,
	"replay-multijob": 400,
}

// workloadName maps a generator to its workload name.
func workloadName(w workload) string {
	if w.gateway() {
		return "serve-cached"
	}
	return "serve-compute"
}

// runServing launches the fleet minSetups or more times, measures a closed
// and an open loop on the last one, reads the fleet's own counters,
// stops it, and checks the kept answers in-process.
func runServing(cfg runConfig, w workload) (*result, error) {
	name := workloadName(w)
	res := newResult()
	conns := runtime.NumCPU()
	runtime.GOMAXPROCS(1)
	var setups []float64
	var f *fleetProcs
	for spent := time.Duration(0); len(setups) < minSetups || len(setups) < maxSetups && spent < setupBudget; {
		f.stop()
		start := time.Now()
		var err error
		if f, err = startFleet(cfg.binDir, w.gateway()); err != nil {
			return nil, err
		}
		if err := prepare(f.entry(), w, conns); err != nil {
			f.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		cpu, err := f.cpuSeconds()
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		spent += time.Since(start)
		setups = append(setups, cpu)
	}
	defer f.stop()
	res.set("setup_s", median(setups), "s", len(setups))

	before, err := readWorkerStats(f)
	if err != nil {
		return nil, err
	}
	t := newTarget(f.entry(), conns)
	defer t.close()
	// Between the loops, each round times servingPasses passes over the
	// replay workload's trace set, for predict_replay_s and
	// substrate_replay_s, and the yardstick.
	rt := newReplayTimer(newTraceSet(cfg.seed), predictor(bwshare.GigEModel()), bwshare.NewGigE(), res)
	gauge := newSpeedGauge()
	between := func() {
		for k := 0; k < servingPasses; k++ {
			rt.pass()
		}
		gauge.sample()
	}
	closed, open := roundLoops(httpOps(t, w), conns, openRate[name],
		time.Duration(0.6*cfg.seconds*float64(time.Second)), time.Duration(0.4*cfg.seconds*float64(time.Second)), checkOps, f.cpuSeconds, between)
	loopMetrics(res, closed, open)
	if err := rt.report(); err != nil {
		return nil, err
	}
	gauge.report(res)
	errPct, comms, err := predictionError(servedItems(w))
	if err != nil {
		return nil, err
	}
	res.set("pred_error_pct", errPct, "%", comms)

	if err := readCounters(f, before, res); err != nil {
		return nil, err
	}
	rss, err := f.peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss, "MB", 0)
	if g, isCached := w.(*cachedGen); isCached {
		checkIdentity(f, g, res)
	}
	f.stop()

	if err := checkAnswers(w, closed.kept, res); err != nil {
		return nil, err
	}
	if err := checkAnswers(w, open.kept, res); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := tracedServing(cfg, w, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// prepare runs a workload's set-up requests. Cache warm-up requests are
// independent and run on every connection; cluster set-up runs in order.
func prepare(base string, w workload, conns int) error {
	reqs := w.setup()
	t := newTarget(base, conns)
	defer t.close()
	if !w.gateway() {
		conns = 1
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(reqs); i += conns {
				status, body, err := t.do(&reqs[i])
				if err == nil && !ok(status) {
					err = fmt.Errorf("%s %s: status %d: %.200s", reqs[i].method, reqs[i].path, status, body)
				}
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// workerStats is the part of /v1/stats the benchmark reads, summed over
// the fleet's workers.
type workerStats struct {
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	InternalErrors int64 `json:"internal_errors"`
}

func readWorkerStats(f *fleetProcs) (workerStats, error) {
	var sum workerStats
	for _, p := range f.workers {
		var st workerStats
		if err := getJSON(p.url+"/v1/stats", &st); err != nil {
			return sum, err
		}
		sum.CacheHits += st.CacheHits
		sum.CacheMisses += st.CacheMisses
		sum.InternalErrors += st.InternalErrors
	}
	return sum, nil
}

// readCounters reads the fleet's own counters after the loops: the
// workers' cache-hit ratio over the loops (before holds the counts at
// their start), internal errors, and the gateway's refusals, which
// count as failures.
func readCounters(f *fleetProcs, before workerStats, res *result) error {
	st, err := readWorkerStats(f)
	if err != nil {
		return err
	}
	if st.InternalErrors > 0 {
		res.problem("workers counted %d internal errors", st.InternalErrors)
	}
	hits, misses := st.CacheHits-before.CacheHits, st.CacheMisses-before.CacheMisses
	if hits+misses > 0 {
		res.set("server.cache_hit_ratio.untraced", float64(hits)/float64(hits+misses), "fraction", int(hits+misses))
	}
	if f.gate != nil {
		var gs struct {
			Rejected    int64 `json:"rejected"`
			Unavailable int64 `json:"unavailable"`
			BadGateway  int64 `json:"bad_gateway"`
		}
		if err := getJSON(f.gate.url+"/v1/gateway/stats", &gs); err != nil {
			return err
		}
		refused := gs.Rejected + gs.Unavailable + gs.BadGateway
		res.set("gateway.refused.untraced", float64(refused), "count", 0)
		if refused > 0 {
			res.problem("gateway refused %d requests", refused)
		}
	}
	return nil
}

func getJSON(url string, v any) error {
	t := newTarget("", 1)
	defer t.close()
	status, body, err := t.do(&request{method: "GET", path: url})
	if err != nil {
		return err
	}
	if !ok(status) {
		return fmt.Errorf("GET %s: status %d", url, status)
	}
	return json.Unmarshal(body, v)
}

// checkIdentity sends a seeded sample of serve-cached requests through
// bwgate, then twice straight to each worker, and requires the gateway's
// answer to equal the second (cached) direct answer byte for byte.
func checkIdentity(f *fleetProcs, g *cachedGen, res *result) {
	gate := newTarget(f.gate.url, 1)
	defer gate.close()
	viaGate := make([][]byte, identitySample)
	reqs := make([]request, identitySample)
	for i := range reqs {
		reqs[i] = g.op(openBase*2 + i).reqs[0]
		status, body, err := gate.do(&reqs[i])
		if err != nil || !ok(status) {
			res.problem("identity sample %d through bwgate: status %d err %v", i, status, err)
			return
		}
		viaGate[i] = body
	}
	for _, wp := range f.workers {
		direct := newTarget(wp.url, 1)
		for i := range reqs {
			var body []byte
			for pass := 0; pass < 2; pass++ {
				status, b, err := direct.do(&reqs[i])
				if err != nil || !ok(status) {
					res.problem("identity sample %d direct to %s: status %d err %v", i, wp.url, status, err)
					direct.close()
					return
				}
				body = b
			}
			if !bytes.Equal(body, viaGate[i]) {
				res.problem("identity sample %d (%s %s): bwgate answer differs from %s", i, reqs[i].method, reqs[i].path, wp.url)
			}
		}
		direct.close()
	}
	res.attempted += identitySample * (1 + 2*len(f.workers))
}

// checkAnswers verifies the kept answers: every prediction against the
// predict package, every placement ranking against an in-process fleet
// with the same set-up, and every admission's job name.
func checkAnswers(w workload, kept []outcome, res *result) error {
	memo := make(map[*predictItem]prediction)
	var mgr *fleet.Manager
	if g, isCompute := w.(*computeGen); isCompute {
		var err error
		if mgr, err = refFleet(g); err != nil {
			return fmt.Errorf("in-process fleet set-up: %w", err)
		}
	}
	for _, o := range kept {
		if o.err != nil || !ok(o.status) {
			continue // already counted as failed
		}
		req := w.op(o.opIndex).reqs[o.reqPos]
		var err error
		switch req.class {
		case "placements":
			err = checkPlacements(mgr, req.fleet, o.body)
		case "admit":
			var doc struct {
				Name string `json:"name"`
			}
			if err = json.Unmarshal(o.body, &doc); err == nil && doc.Name != req.fleet.job {
				err = fmt.Errorf("admitted job %q, want %q", doc.Name, req.fleet.job)
			}
		case "evict":
		default:
			err = checkPredict(&req, o.body, memo)
		}
		if err != nil {
			res.problem("op %d %s %s: %v", o.opIndex, req.method, req.path, err)
		}
	}
	return nil
}

// servedItems returns the distinct prediction items of the closed loop's
// first checkOps ops, whose answers the checks recompute: the sample of
// the paper's accuracy comparison, pred_error_pct.
func servedItems(w workload) []*predictItem {
	var items []*predictItem
	seen := make(map[*predictItem]bool)
	for i := 0; i < checkOps; i++ {
		for _, req := range w.op(i).reqs {
			for _, it := range req.items {
				if !seen[it] {
					seen[it] = true
					items = append(items, it)
				}
			}
		}
	}
	return items
}
