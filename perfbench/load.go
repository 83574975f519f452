package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// target is an HTTP endpoint driven through at most conns connections.
type target struct {
	base   string
	client *http.Client
}

func newTarget(base string, conns int) *target {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}
	return &target{base: base, client: &http.Client{Transport: tr, Timeout: time.Minute}}
}

// close drops the target's idle connections.
func (t *target) close() { t.client.CloseIdleConnections() }

// do sends r and returns the status and the whole body.
func (t *target) do(r *request) (int, []byte, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, t.base+r.path, body)
	if err != nil {
		return 0, nil, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// ok reports whether a status counts as a success.
func ok(status int) bool { return status >= 200 && status < 300 }

// outcome is one answered (or failed) request of a loop.
type outcome struct {
	opIndex int
	reqPos  int
	status  int
	body    []byte
	err     error
}

// loopResult aggregates one closed or open loop, or several rounds of one.
type loopResult struct {
	attempted int
	failed    int
	ops       int       // ops started
	latencyUS []float64 // per request, from its due time; +Inf when failed
	lagUS     []float64 // open loop: how late the generator handed each op over
	doneS     []float64 // per request, when it was answered, in seconds from the start
	windows   []float64 // closed loop: successes per second in each full window
	cpuUS     []float64 // closed loop: CPU microseconds per success, one per window
	kept      []outcome // answers of ops below the keep index, for the checks
	firstErr  string
}

// add appends another round of the same loop.
func (l *loopResult) add(r loopResult) {
	l.attempted += r.attempted
	l.failed += r.failed
	l.ops += r.ops
	l.latencyUS = append(l.latencyUS, r.latencyUS...)
	l.lagUS = append(l.lagUS, r.lagUS...)
	l.windows = append(l.windows, r.windows...)
	l.cpuUS = append(l.cpuUS, r.cpuUS...)
	l.kept = append(l.kept, r.kept...)
	if l.firstErr == "" {
		l.firstErr = r.firstErr
	}
}

// recorder collects outcomes from the connection goroutines. It keeps
// the answers of the loop's first keep ops (numbered from base) for the
// checks: those ops always run, so the checked sample does not depend on
// how fast the system was.
type recorder struct {
	mu    sync.Mutex
	res   loopResult
	keep  int
	base  int
	start time.Time
}

// succeeded returns the number of successful requests so far.
func (rc *recorder) succeeded() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.res.attempted - rc.res.failed
}

func (rc *recorder) add(o outcome, latUS float64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.res.attempted++
	if o.err != nil || !ok(o.status) {
		rc.res.failed++
		latUS = math.Inf(1)
		if rc.res.firstErr == "" {
			if o.err != nil {
				rc.res.firstErr = o.err.Error()
			} else {
				rc.res.firstErr = fmt.Sprintf("op %d: status %d: %.200s", o.opIndex, o.status, o.body)
			}
		}
	}
	rc.res.latencyUS = append(rc.res.latencyUS, latUS)
	rc.res.doneS = append(rc.res.doneS, time.Since(rc.start).Seconds())
	if o.opIndex-rc.base < rc.keep {
		rc.res.kept = append(rc.res.kept, o)
	}
}

// opRunner executes op index on connection (or worker) conn, timing
// every request it makes from due and adding it to rc.
type opRunner func(conn, index int, due time.Time, rc *recorder)

// httpOps runs a workload's ops over HTTP.
func httpOps(t *target, w workload) opRunner {
	return func(_, index int, due time.Time, rc *recorder) {
		o := w.op(index)
		for pos := range o.reqs {
			status, body, err := t.do(&o.reqs[pos])
			lat := float64(time.Since(due)) / 1e3
			rc.add(outcome{opIndex: index, reqPos: pos, status: status, body: body, err: err}, lat)
		}
	}
}

// cpuMeter returns the CPU seconds the system under test has used so
// far.
type cpuMeter func() (float64, error)

// closedLoop runs conns connections, each sending its next op as soon as
// the previous one is answered, for d. Ops are numbered from base. It
// splits d into windows of about cpuWindow and records in cpuUS each
// window's CPU microseconds per success, as cpu reports them.
func closedLoop(run opRunner, base, conns int, d time.Duration, keep int, cpu cpuMeter) loopResult {
	cpu0, cpuErr := cpu()
	start := time.Now()
	rc := &recorder{keep: keep, base: base, start: start}
	var next atomic.Int64
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				run(c, base+int(next.Add(1)-1), time.Now(), rc)
			}
		}()
	}
	if cpuErr == nil {
		rc.res.cpuUS, cpuErr = meterWindows(cpu, cpu0, start, d, rc)
	}
	wg.Wait()
	rc.res.ops = int(next.Load())
	rc.res.windows = windowRates(rc.res.doneS, rc.res.latencyUS, time.Since(start).Seconds(), throughputWindow)
	if cpuErr != nil {
		rc.res.failed++
		rc.res.firstErr = "reading CPU time: " + cpuErr.Error()
	}
	return rc.res
}

// cpuWindow is the target length of the windows over which closedLoop
// divides CPU time by successes; cpu_us_per_req is the median over a
// run's windows, so a burst on the shared machine spoils a window, not
// the figure.
const cpuWindow = time.Second

// meterWindows splits the d from start (when cpu read cpu0) into equal
// windows of about cpuWindow, reads cpu at the end of each, and returns
// each window's CPU microseconds per success recorded by rc.
func meterWindows(cpu cpuMeter, cpu0 float64, start time.Time, d time.Duration, rc *recorder) ([]float64, error) {
	n := max(1, int((d+cpuWindow/2)/cpuWindow))
	var out []float64
	last, lastOK := cpu0, 0
	for k := 1; k <= n; k++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(k) / time.Duration(n))))
		c, err := cpu()
		if err != nil {
			return nil, err
		}
		if done := rc.succeeded(); done > lastOK {
			out = append(out, 1e6*(c-last)/float64(done-lastOK))
			last, lastOK = c, done
		}
	}
	return out, nil
}

// openLoop offers ops at a fixed rate (ops per second) for d, whatever
// the system's state: a dispatcher hands op j, due at start + j/rate, to
// a queue served by conns connections. Each request is timed from its
// op's due time, so a stall also charges the requests queued behind it;
// the dispatcher's own lateness is reported separately as lag.
func openLoop(run opRunner, base, conns int, rate float64, d time.Duration, keep int) loopResult {
	type due struct {
		index int
		at    time.Time
	}
	n := int(rate * d.Seconds())
	// Sized to the number of ops offered, so the dispatcher never blocks
	// on busy connections and its lag measures only its own lateness.
	queue := make(chan due, n)
	start := time.Now()
	rc := &recorder{keep: keep, base: base, start: start}
	lag := make([]float64, 0, n)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				run(c, j.index, j.at, rc)
			}
		}()
	}
	for j := 0; j < n; j++ {
		at := start.Add(time.Duration(float64(j) / rate * 1e9))
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		lag = append(lag, float64(time.Since(at))/1e3)
		queue <- due{index: base + j, at: at}
	}
	close(queue)
	wg.Wait()
	rc.res.ops = n
	rc.res.lagUS = lag
	return rc.res
}

// loopMetrics records both loops' failures, the closed loop's CPU time
// per request (the median over its windows) and throughput (successes
// per second), and the open loop's latency percentiles, sample count and
// generator lag. Only the CPU time is an end-to-end metric: the kernel
// leaves the host's steal out of it, so it moves far less with the
// neighbours' load. The wall-clock figures are reported with the traced
// run's per-layer metrics, under bench.
func loopMetrics(res *result, closed, open loopResult) {
	for _, l := range []loopResult{closed, open} {
		res.attempted += l.attempted
		res.failed += l.failed
		if l.firstErr != "" {
			res.problem("request failed: %s", l.firstErr)
		}
	}
	res.set("cpu_us_per_req", median(closed.cpuUS), "us", closed.attempted)
	res.set("bench.throughput_rps", median(closed.windows), "req/s", closed.attempted)
	samples := len(open.latencyUS)
	p50, _ := percentile(open.latencyUS, 0.50)
	res.set("bench.latency_p50_us", p50, "us", samples)
	if p99, enough := chunkedPercentile(open.latencyUS, 0.99); enough {
		res.set("bench.latency_p99_us", p99, "us", samples)
	} else {
		res.problem("open loop gave %d latency samples; p99 needs %d", samples, 100*minTail)
	}
	lag, _ := percentile(open.lagUS, 0.99)
	res.set("bench.gen_lag_us_p99", lag, "us", len(open.lagUS))
	res.set("bench.latency_samples", float64(samples), "count", 0)
}

// throughputWindow is the length in seconds of the closed-loop windows
// whose median rate is bench.throughput_rps: a stall of the shared machine
// spoils a window or two, not the figure.
const throughputWindow = 0.5

// rounds is how many times a run alternates its phases (closed loop,
// open loop, and on replay the trace-set replays), so that every metric
// samples the whole run rather than one stretch of a shared machine.
const rounds = 4

// roundLoops runs rounds rounds of a closed loop for closedD, metered by
// cpu, and an open loop for openD; between the two, each round calls
// between (nil for nothing). Op numbers continue across rounds: the
// closed loop's from 0, the open loop's from openBase.
func roundLoops(run opRunner, conns int, rate float64, closedD, openD time.Duration, keep int, cpu cpuMeter, between func()) (closed, open loopResult) {
	for r := 0; r < rounds; r++ {
		closed.add(closedLoop(run, closed.ops, conns, closedD/rounds, keep-closed.ops, cpu))
		if between != nil {
			between()
		}
		open.add(openLoop(run, openBase+open.ops, conns, rate, openD/rounds, keep-open.ops))
	}
	return closed, open
}

// windowRates splits a loop into windows of w seconds and returns each
// full window's successes per second.
func windowRates(doneS, latencyUS []float64, elapsed, w float64) []float64 {
	n := int(elapsed / w)
	counts := make([]float64, n)
	for i, t := range doneS {
		if k := int(t / w); k < n && !math.IsInf(latencyUS[i], 1) {
			counts[k]++
		}
	}
	for k := range counts {
		counts[k] /= w
	}
	return counts
}
