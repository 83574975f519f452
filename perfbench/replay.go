package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"bwshare"
)

// Replay-workload constants.
const (
	// traceSet is the number of composite traces a run times, and
	// jobsPerTrace the concurrent jobs of each. The replay workload
	// replays errorTraces more once each, untimed, so that
	// pred_error_pct averages over enough jobs to vary little by seed.
	traceSet     = 6
	jobsPerTrace = 20
	errorTraces  = 12
	// replaySetupRepeats is how many times a run builds the traces and
	// the engines; setup_s is the median CPU time.
	replaySetupRepeats = 15
	// minPasses is the least number of replays of the set per round.
	minPasses = 1
)

// job is one application of the composite trace, with its own ranks.
type job struct {
	trace *bwshare.Trace
}

// pairwise appends one pairwise-exchange all-to-all round set among p
// tasks (p a power of two): in step k, rank r exchanges with r XOR k,
// the lower rank sending first, so no two blocking sends wait on each
// other.
func pairwise(tasks [][]bwshare.TraceEvent, p int, bytes float64) {
	for k := 1; k < p; k++ {
		for r := 0; r < p; r++ {
			peer := r ^ k
			send := bwshare.TraceEvent{Kind: "send", Peer: peer, Bytes: bytes, Tag: k}
			recv := bwshare.TraceEvent{Kind: "recv", Peer: peer, Bytes: bytes, Tag: k}
			if r < peer {
				tasks[r] = append(tasks[r], send, recv)
			} else {
				tasks[r] = append(tasks[r], recv, send)
			}
		}
	}
}

// ring appends one halo exchange with both ring neighbours among p
// tasks (p even): even ranks send while odd ranks receive, then the
// other way round, in each direction.
func ring(tasks [][]bwshare.TraceEvent, p int, bytes float64) {
	for dir, tag := range []int{1, -1} {
		for phase := 0; phase < 2; phase++ {
			for r := 0; r < p; r++ {
				to := (r + tag + p) % p
				from := (r - tag + p) % p
				if r%2 == phase {
					tasks[r] = append(tasks[r], bwshare.TraceEvent{Kind: "send", Peer: to, Bytes: bytes, Tag: 100 + dir})
				} else {
					tasks[r] = append(tasks[r], bwshare.TraceEvent{Kind: "recv", Peer: from, Bytes: bytes, Tag: 100 + dir})
				}
			}
		}
	}
}

// jobShape is one job of the composite trace's fixed mix.
type jobShape struct {
	kind     string
	p, iters int
}

// jobMix returns n shapes of the mix, cycling through it from offset:
// wide all-to-all jobs, pairwise-exchange jobs and halo rings of assorted
// widths. The mix is fixed so that every seed asks for the same amount of
// work and the same sharing of nodes; the seed draws the message sizes
// and compute gaps, within 10% and 20% of their centres.
func jobMix(n, offset int) []jobShape {
	base := []jobShape{
		{"alltoall", 32, 1}, {"alltoall", 16, 1},
		{"pairwise", 8, 2}, {"halo", 12, 3}, {"pairwise", 4, 3}, {"halo", 8, 4},
		{"pairwise", 2, 3}, {"halo", 6, 4}, {"pairwise", 8, 1}, {"halo", 10, 2},
		{"pairwise", 4, 2}, {"halo", 4, 5}, {"pairwise", 2, 2}, {"halo", 8, 3},
		{"pairwise", 8, 3}, {"halo", 6, 2}, {"pairwise", 4, 1}, {"halo", 12, 2},
	}
	out := make([]jobShape, n)
	for i := range out {
		out[i] = base[(offset+i)%len(base)]
	}
	return out
}

// genJobs draws n jobs of the mix from offset, with seeded message
// sizes and compute gaps.
func genJobs(r *rng, n, offset int) []job {
	shapes := jobMix(n, offset)
	jobs := make([]job, 0, n)
	for _, s := range shapes {
		kind, p, iters := s.kind, s.p, s.iters
		bytes := float64(r.between(3600, 4400)) * 1e3
		tasks := make([][]bwshare.TraceEvent, p)
		for it := 0; it < iters; it++ {
			for t := range tasks {
				tasks[t] = append(tasks[t], bwshare.TraceEvent{Kind: "compute", Duration: float64(r.between(4000, 6000)) * 1e-6})
			}
			if kind == "halo" {
				ring(tasks, p, bytes)
			} else {
				pairwise(tasks, p, bytes)
			}
		}
		tr := &bwshare.Trace{}
		for _, t := range tasks {
			tr.Tasks = append(tr.Tasks, t)
		}
		jobs = append(jobs, job{trace: tr})
	}
	return jobs
}

// compose concatenates the jobs' ranks into one trace; jobs interact only
// through the shared network.
func compose(jobs []job) *bwshare.Trace {
	out := &bwshare.Trace{}
	for _, j := range jobs {
		off := len(out.Tasks)
		for _, task := range j.trace.Tasks {
			shifted := make([]bwshare.TraceEvent, len(task))
			for k, ev := range task {
				if ev.Kind == "send" || ev.Kind == "recv" {
					ev.Peer += off
				}
				shifted[k] = ev
			}
			out.Tasks = append(out.Tasks, shifted)
		}
	}
	return out
}

// blockPlacement puts ranks 2k and 2k+1 on dual-core node k.
func blockPlacement(tasks int) (bwshare.Cluster, bwshare.Placement) {
	place := make(bwshare.Placement, tasks)
	for r := range place {
		place[r] = bwshare.NodeID(r / 2)
	}
	return bwshare.DefaultCluster((tasks + 1) / 2), place
}

// netTransfers counts the sends between ranks on different nodes.
func netTransfers(tr *bwshare.Trace, place bwshare.Placement) int {
	n := 0
	for r, task := range tr.Tasks {
		for _, ev := range task {
			if ev.Kind == "send" && place[r] != place[ev.Peer] {
				n++
			}
		}
	}
	return n
}

// spreadPlacement puts rank r on node r mod nodes, with two ranks per
// dual-core node: each node hosts ranks from two different jobs, which
// then share its NIC.
func spreadPlacement(tasks int) (bwshare.Cluster, bwshare.Placement) {
	nodes := (tasks + 1) / 2
	place := make(bwshare.Placement, tasks)
	for r := range place {
		place[r] = bwshare.NodeID(r % nodes)
	}
	return bwshare.DefaultCluster(nodes), place
}

// composite is one co-scheduled trace of the replay workload.
type composite struct {
	jobs      []job
	trace     *bwshare.Trace
	clu       bwshare.Cluster
	place     bwshare.Placement
	transfers int // network transfers the trace implies
}

func newComposite(r *rng, jobs, offset int) *composite {
	c := &composite{jobs: genJobs(r, jobs, offset)}
	c.trace = compose(c.jobs)
	c.clu, c.place = spreadPlacement(len(c.trace.Tasks))
	c.transfers = netTransfers(c.trace, c.place)
	return c
}

// newTraceSet builds the timed traces from the seed.
func newTraceSet(seed int64) []*composite { return traceRange(seed, 0, traceSet) }

// traceRange builds traces from to from+n-1 of the seed's sequence;
// trace k starts the mix at a different offset, so a set of six covers
// every shape.
func traceRange(seed int64, from, n int) []*composite {
	set := make([]*composite, n)
	for i := range set {
		k := from + i
		set[i] = newComposite(newRNG(seed, 7+uint64(k)), jobsPerTrace, k*3)
	}
	return set
}

// predictor is the GigE-model predictor engine at the GigE substrate's
// reference rate.
func predictor(m bwshare.Model) bwshare.Engine {
	return bwshare.NewPredictor(m, bwshare.NewGigE().RefRate())
}

// replayPair is one replay of a trace on each engine.
type replayPair struct {
	pred, sub *bwshare.ReplayResult
}

// sendTimeErrPct is the paper's Figures 8-9 quantity: the mean relative
// error of predicted against substrate per-task send time, in percent,
// over the tasks that send.
func sendTimeErrPct(p replayPair) float64 {
	sp, sm := p.pred.CommTimes(), p.sub.CommTimes()
	sum, n := 0.0, 0
	for i := range sm {
		if sm[i] > 0 {
			sum += math.Abs((sp[i] - sm[i]) / sm[i])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}

// canary is a fixed small trace replayed in every run: its transfer count
// and both makespans are pinned, so a build that replays faster but
// differently fails the run.
var canary = struct {
	seed              int64
	jobs              int
	transfers         int
	predMake, subMake float64
}{seed: 2008, jobs: 6, transfers: 1516, predMake: 3.3162263704615205, subMake: 3.3546907943796316}

// checkRun compares one replay with the expected transfer count and
// makespan.
func checkRun(r *bwshare.ReplayResult, transfers int, makespan float64) error {
	if r.NetTransfers != transfers {
		return fmt.Errorf("%s replay made %d network transfers, want %d", r.Engine, r.NetTransfers, transfers)
	}
	if !relClose(r.Makespan, makespan, checkTol) {
		return fmt.Errorf("%s replay makespan %.17g, want %.17g", r.Engine, r.Makespan, makespan)
	}
	return nil
}

// replayBoth replays c once on pred and once on sub, untimed.
func replayBoth(c *composite, pred, sub bwshare.Engine) (replayPair, error) {
	var p replayPair
	var err error
	if p.pred, err = bwshare.Replay(pred, c.clu, c.place, c.trace); err != nil {
		return p, fmt.Errorf("predictor replay: %w", err)
	}
	if p.sub, err = bwshare.Replay(sub, c.clu, c.place, c.trace); err != nil {
		return p, fmt.Errorf("substrate replay: %w", err)
	}
	return p, nil
}

// timedReplay replays c on e after a collection, so that it pays for no
// garbage another replay left behind, and returns the CPU seconds it
// took.
func timedReplay(e bwshare.Engine, c *composite) (*bwshare.ReplayResult, float64, error) {
	runtime.GC()
	start := selfCPUSeconds()
	r, err := bwshare.Replay(e, c.clu, c.place, c.trace)
	return r, selfCPUSeconds() - start, err
}

// subReps is how many times a pass replays each trace on the substrate,
// which takes a few milliseconds a trace: short enough for one burst on
// the shared machine to spoil a replay.
const subReps = 3

// replayTimer times passes over a trace set, on the GigE-model
// predictor and on the GigE substrate, and checks every replay: the
// transfer count against the trace's, and the makespan against the
// first pass's. Every workload runs one between its loops and reports
// the same two metrics from it: predict_replay_s and substrate_replay_s
// are the sums over the traces of each trace's median CPU seconds, so a
// burst on the shared machine spoils one replay of a trace, not the
// figure.
type replayTimer struct {
	set         []*composite
	pred, sub   bwshare.Engine
	res         *result
	first       []replayPair
	predS, subS [][]float64 // per trace, one entry per replay
	passes      int
	err         error
}

func newReplayTimer(set []*composite, pred, sub bwshare.Engine, res *result) *replayTimer {
	return &replayTimer{set: set, pred: pred, sub: sub, res: res,
		predS: make([][]float64, len(set)), subS: make([][]float64, len(set))}
}

// pass replays every trace once on the predictor and subReps times on
// the substrate, on one P, as a single-threaded replay runs.
func (t *replayTimer) pass() {
	if t.err != nil {
		return
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	pairs := make([]replayPair, len(t.set))
	for k, c := range t.set {
		r, s, err := timedReplay(t.pred, c)
		if err != nil {
			t.err = fmt.Errorf("predictor replay of trace %d: %w", k, err)
			return
		}
		pairs[k].pred = r
		t.predS[k] = append(t.predS[k], s)
		for rep := 0; rep < subReps; rep++ {
			if r, s, err = timedReplay(t.sub, c); err != nil {
				t.err = fmt.Errorf("substrate replay of trace %d: %w", k, err)
				return
			}
			t.subS[k] = append(t.subS[k], s)
			if rep == 0 {
				pairs[k].sub = r
			} else {
				t.check(k, r, pairs[k].sub.Makespan)
			}
		}
	}
	if t.first == nil {
		t.first = pairs
	}
	for k, p := range pairs {
		t.check(k, p.pred, t.first[k].pred.Makespan)
		t.check(k, p.sub, t.first[k].sub.Makespan)
	}
	t.passes++
}

func (t *replayTimer) check(k int, r *bwshare.ReplayResult, makespan float64) {
	t.res.attempted++
	if err := checkRun(r, t.set[k].transfers, makespan); err != nil {
		t.res.problem("trace %d: %v", k, err)
	}
}

// report sets predict_replay_s and substrate_replay_s.
func (t *replayTimer) report() error {
	if t.err != nil {
		return t.err
	}
	var predS, subS float64
	for k := range t.set {
		predS += median(t.predS[k])
		subS += median(t.subS[k])
	}
	t.res.set("predict_replay_s", predS, "s", t.passes)
	t.res.set("substrate_replay_s", subS, "s", t.passes*subReps)
	return nil
}

// runReplay measures replay-multijob: in each round, single-job
// prediction requests run in a closed loop, the trace set is replayed on
// both engines, and the requests run in an open loop.
func runReplay(cfg runConfig) (*result, error) {
	res := newResult()
	var setups []float64
	var set []*composite
	var pred, sub bwshare.Engine
	for k := 0; k < replaySetupRepeats; k++ {
		runtime.GC()
		start := selfCPUSeconds()
		set = newTraceSet(cfg.seed)
		pred, sub = predictor(bwshare.GigEModel()), bwshare.NewGigE()
		setups = append(setups, selfCPUSeconds()-start)
	}
	res.set("setup_s", median(setups), "s", len(setups))

	// Each round replays the trace set on both engines for half its
	// time, then times the yardstick.
	rt := newReplayTimer(set, pred, sub, res)
	gauge := newSpeedGauge()
	replayRound := func() {
		deadline := time.Now().Add(time.Duration(0.5 * cfg.seconds / rounds * float64(time.Second)))
		for n := 0; rt.err == nil && (n < minPasses || time.Now().Before(deadline)); n++ {
			rt.pass()
		}
		gauge.sample()
	}

	// Single-job prediction requests: op i replays one job of the set
	// alone on the predictor, on its own dual-core nodes.
	var jobs []job
	for _, c := range set {
		jobs = append(jobs, c.jobs...)
	}
	conns := runtime.NumCPU()
	engines := make([]bwshare.Engine, conns)
	for c := range engines {
		engines[c] = predictor(bwshare.GigEModel())
	}
	jobOps := func(c, index int, due time.Time, rc *recorder) {
		j := jobs[index%len(jobs)]
		clu, place := blockPlacement(len(j.trace.Tasks))
		_, err := bwshare.Replay(engines[c], clu, place, j.trace)
		rc.add(outcome{opIndex: index, status: 200, err: err}, float64(time.Since(due))/1e3)
	}
	// The workers are busy on the CPU; one more P than workers lets the
	// open loop's dispatcher wake on time instead of waiting for a
	// worker's preemption.
	prev := runtime.GOMAXPROCS(conns + 1)
	closed, open := roundLoops(jobOps, conns, openRate["replay-multijob"],
		time.Duration(0.3*cfg.seconds*float64(time.Second)), time.Duration(0.2*cfg.seconds*float64(time.Second)), 0, cpuSelf, replayRound)
	runtime.GOMAXPROCS(prev)
	if err := rt.report(); err != nil {
		return nil, err
	}
	loopMetrics(res, closed, open)
	gauge.report(res)

	// The accuracy comparison takes the first pass and errorTraces more
	// traces, each replayed once on fresh engines.
	errs := make([]float64, 0, traceSet+errorTraces)
	for _, p := range rt.first {
		errs = append(errs, sendTimeErrPct(p))
	}
	for i, c := range traceRange(cfg.seed, traceSet, errorTraces) {
		p, err := replayBoth(c, predictor(bwshare.GigEModel()), bwshare.NewGigE())
		if err != nil {
			return nil, fmt.Errorf("trace %d: %w", traceSet+i, err)
		}
		res.attempted += 2
		for _, r := range []*bwshare.ReplayResult{p.pred, p.sub} {
			if err := checkRun(r, c.transfers, r.Makespan); err != nil {
				res.problem("trace %d: %v", traceSet+i, err)
			}
		}
		errs = append(errs, sendTimeErrPct(p))
	}
	res.set("pred_error_pct", mean(errs), "%", len(errs))
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss, "MB", 0)

	c := newComposite(newRNG(canary.seed, 0), canary.jobs, 0)
	cp, err := replayBoth(c, predictor(bwshare.GigEModel()), bwshare.NewGigE())
	res.attempted++
	if err != nil {
		res.problem("canary replay: %v", err)
	} else if err := errors.Join(checkRun(cp.pred, canary.transfers, canary.predMake), checkRun(cp.sub, canary.transfers, canary.subMake)); err != nil {
		res.problem("canary (seed %d, %d jobs): %v", canary.seed, canary.jobs, err)
	}
	if cfg.trace {
		if err := tracedReplay(cfg, set, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}
