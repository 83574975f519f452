// Command bwbench runs the canonical hot-path benchmark suite
// (internal/benchsuite) and writes a machine-readable perf snapshot,
// giving every PR a benchmark trajectory to compare against.
//
// Output is a JSON file (BENCH_<pr>.json by default):
//
//	{
//	  "schema": "bwshare-bench/v1",
//	  "pr": 2,
//	  "go": "go1.24.0", "goos": "linux", "goarch": "amd64",
//	  "benchmarks": [
//	    {"name": "ChurnAlloc/inc/gige/8jobs", "n": 123, "ns_per_op": 4567.8,
//	     "bytes_per_op": 0, "allocs_per_op": 0},
//	    ...
//	  ]
//	}
//
// While running, standard Go benchmark lines are printed to stdout
// ("BenchmarkX-8  N  ns/op  B/op  allocs/op"), so piping a few runs into
// benchstat works exactly like `go test -bench`.
//
// Usage:
//
//	bwbench                          # full suite -> next free BENCH_<n>.json
//	bwbench -pr 3                    # -> BENCH_3.json (overwrites)
//	bwbench -out /tmp/b.json         # explicit path
//	bwbench -filter 'ChurnAlloc'     # subset by regexp
//	bwbench -list                    # print benchmark names and exit
//	bwbench -check                   # regression gate vs latest snapshot
//	bwbench -check -baseline BENCH_2.json -threshold 25 -slo-threshold 50
//	bwbench -check -ignore-missing '^(ShardChurn|ShardReplay)/'
//
// Without -pr, the snapshot number is one past the highest committed
// BENCH_<n>.json, so a plain run never overwrites an earlier PR's
// trajectory point.
//
// Besides the function-level suite, every run includes the
// service-level load scenarios (internal/benchsuite's LoadSuite, built
// on internal/loadgen): seeded mixed HTTP workloads against an
// in-process bwserved, snapshotted as Load/ entries carrying
// throughput_rps and p50/p95/p99 latency. -load=false skips them for
// quick function-level iterations.
//
// With -check, no snapshot is written: the suite runs and is compared
// against the baseline snapshot (the highest committed BENCH_<n>.json by
// default; the header names exactly which file was used, and a missing
// or empty baseline is an error, never a silent pass). The run fails if
// any function-level benchmark regresses by more than -threshold
// percent ns/op, or allocates at all where the baseline was zero-alloc.
// Service-level Load/ entries are held to SLO gates instead: throughput
// may not drop more than -slo-threshold percent below the baseline, and
// p99 latency may not blow out more than -slo-threshold percent above
// it. Benchmarks new in this tree (absent from the baseline) are
// reported and skipped; baseline benchmarks missing from the run fail
// the gate unless -ignore-missing matches them. This is the CI
// bench-regression + load-SLO gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bwshare/internal/benchsuite"
)

// snapshot is the BENCH_<n>.json document.
type snapshot struct {
	Schema     string              `json:"schema"`
	PR         int                 `json:"pr"`
	Go         string              `json:"go"`
	GOOS       string              `json:"goos"`
	GOARCH     string              `json:"goarch"`
	Benchmarks []benchsuite.Result `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bwbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bwbench", flag.ContinueOnError)
	fs.SetOutput(out)
	pr := fs.Int("pr", 0, "PR number, names the output file BENCH_<pr>.json (0 = one past the highest existing snapshot)")
	outPath := fs.String("out", "", "output path (default BENCH_<pr>.json)")
	filter := fs.String("filter", "", "regexp selecting a benchmark subset")
	list := fs.Bool("list", false, "list benchmark names and exit")
	check := fs.Bool("check", false, "compare against a baseline snapshot instead of writing one; fail on regression")
	baseline := fs.String("baseline", "", "baseline snapshot for -check (default: highest BENCH_<n>.json in the working directory)")
	threshold := fs.Float64("threshold", 25, "ns/op regression tolerance for -check, in percent")
	sloThreshold := fs.Float64("slo-threshold", 50, "service-level tolerance for -check, in percent: throughput floor and p99 ceiling for Load/ entries")
	load := fs.Bool("load", true, "include the service-level load scenarios (Load/ entries)")
	ignoreMissing := fs.String("ignore-missing", "", "regexp of baseline benchmarks allowed to be missing from this run under -check (e.g. when gating against an older snapshot that predates a renamed suite row)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, bm := range benchsuite.Suite() {
			fmt.Fprintln(out, bm.Name)
		}
		if *load {
			for _, lb := range benchsuite.LoadSuite() {
				fmt.Fprintln(out, lb.Name)
			}
		}
		return nil
	}
	var re *regexp.Regexp
	if *filter != "" {
		var err error
		if re, err = regexp.Compile(*filter); err != nil {
			return fmt.Errorf("bad -filter: %w", err)
		}
	}
	var missOK *regexp.Regexp
	if *ignoreMissing != "" {
		if !*check {
			return fmt.Errorf("-ignore-missing only applies with -check")
		}
		var err error
		if missOK, err = regexp.Compile(*ignoreMissing); err != nil {
			return fmt.Errorf("bad -ignore-missing: %w", err)
		}
	}
	if *pr == 0 {
		*pr = nextPR(".")
	}
	path := *outPath
	if path == "" {
		path = fmt.Sprintf("BENCH_%d.json", *pr)
	}
	var base *snapshot
	if *check {
		var err error
		if base, err = loadBaseline(*baseline, re, *load, out); err != nil {
			return err
		}
	}
	results, err := benchsuite.Run(re, func(r benchsuite.Result) {
		// go-test-style line: benchstat-compatible.
		fmt.Fprintf(out, "Benchmark%s-%d\t%d\t%.1f ns/op\t%d B/op\t%d allocs/op\n",
			r.Name, runtime.GOMAXPROCS(0), r.N, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	})
	if err != nil {
		return err
	}
	if *load {
		loadResults, err := benchsuite.RunLoad(re, func(r benchsuite.Result) {
			// Distinct line shape: these are service-level measurements,
			// not benchstat input.
			fmt.Fprintf(out, "%s\t%d req\t%.1f req/s\tp50 %s\tp99 %s\n",
				r.Name, r.N, r.ThroughputRPS, nsString(r.P50Ns), nsString(r.P99Ns))
		})
		if err != nil {
			return err
		}
		results = append(results, loadResults...)
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark matches filter %q", *filter)
	}
	if *check {
		// Shared-runner noise damping: a benchmark that appears to
		// regress is re-run up to retryRounds times and judged on its
		// best measurement (minimum ns/op and p99, maximum throughput) —
		// a real regression stays bad on every round, a scheduling
		// hiccup does not. Allocation counts are deterministic and never
		// retried into passing.
		const retryRounds = 2
		for round := 0; round < retryRounds; round++ {
			_, slow, _ := compareResults(results, base.Benchmarks, *threshold, *sloThreshold, missOK)
			if len(slow) == 0 {
				break
			}
			fmt.Fprintf(out, "retrying %d apparent regression(s) (round %d/%d)\n", len(slow), round+1, retryRounds)
			rerun, err := rerunNames(results, slow)
			if err != nil {
				return err
			}
			results = takeBest(results, rerun)
		}
		lines, _, failures := compareResults(results, base.Benchmarks, *threshold, *sloThreshold, missOK)
		for _, l := range lines {
			fmt.Fprintln(out, l)
		}
		if len(failures) > 0 {
			return fmt.Errorf("bench regression: %s", strings.Join(failures, "; "))
		}
		fmt.Fprintf(out, "check passed: %d benchmarks within %.0f%% of baseline (service SLO %.0f%%)\n",
			len(results), *threshold, *sloThreshold)
		return nil
	}
	snap := snapshot{
		Schema:     "bwshare-bench/v1",
		PR:         *pr,
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: results,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s (%d benchmarks)\n", path, len(results))
	return nil
}

// loadBaseline resolves, reads and validates the -check baseline
// snapshot, printing a header that names exactly which file the run is
// judged against. Missing, malformed or (post-filter) empty baselines
// are hard errors: a gate with nothing to compare must fail loudly, not
// pass trivially.
func loadBaseline(path string, re *regexp.Regexp, load bool, out io.Writer) (*snapshot, error) {
	if path == "" {
		n := nextPR(".") - 1
		if n < 1 {
			wd, _ := os.Getwd()
			return nil, fmt.Errorf("-check: no BENCH_<n>.json baseline found in %s (run bwbench to write one, or pass -baseline)", wd)
		}
		path = fmt.Sprintf("BENCH_%d.json", n)
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		abs = path
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("-check: baseline %s: %w", abs, err)
	}
	base := new(snapshot)
	if err := json.Unmarshal(data, base); err != nil {
		return nil, fmt.Errorf("-check: parsing baseline %s: %w", abs, err)
	}
	if base.Schema != "bwshare-bench/v1" {
		return nil, fmt.Errorf("-check: baseline %s has schema %q, want \"bwshare-bench/v1\"", abs, base.Schema)
	}
	var kept []benchsuite.Result
	for _, b := range base.Benchmarks {
		// A -filter subset run is only judged against the matching
		// baseline entries, and -load=false takes the baseline's
		// service-level entries out of scope too; out of scope is not
		// missing.
		if re != nil && !re.MatchString(b.Name) {
			continue
		}
		if !load && isLoadEntry(b) {
			continue
		}
		kept = append(kept, b)
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("-check: baseline %s has no benchmarks in scope — nothing to gate against", abs)
	}
	base.Benchmarks = kept
	fmt.Fprintf(out, "checking against baseline %s (PR %d, %s %s/%s, %d benchmarks in scope)\n",
		abs, base.PR, base.Go, base.GOOS, base.GOARCH, len(kept))
	return base, nil
}

// isLoadEntry reports whether a result is a service-level load entry,
// gated on SLOs instead of ns/op and allocations.
func isLoadEntry(r benchsuite.Result) bool { return r.ThroughputRPS > 0 }

// nsString renders a nanosecond count as a duration.
func nsString(ns float64) string { return time.Duration(ns).String() }

// compareResults checks a fresh run against a baseline snapshot.
//
// Function-level benchmarks fail when ns/op exceeds the baseline by
// more than thresholdPct percent, or when they allocate at all while
// the baseline was zero-alloc (the zero-allocation suites are a hard
// invariant, not a noisy measurement).
//
// Service-level load entries (isLoadEntry) are held to SLO gates
// instead: throughput must not drop more than sloPct percent below the
// baseline, and p99 latency must not blow out more than sloPct percent
// above it.
//
// Benchmarks missing from the baseline are reported as new and skipped,
// so adding a suite entry never breaks the gate — but a baseline
// benchmark absent from the fresh run fails it: a deleted or renamed
// suite entry would otherwise silently drop its regression coverage.
// missOK, when non-nil, exempts matching baseline names from that
// missing-entry failure (the -ignore-missing escape hatch for gating
// against a snapshot that predates an intentional suite change).
// slow lists the names failing only the noise-prone timing checks
// (ns/op, throughput, p99), so the caller can retry them.
func compareResults(cur, base []benchsuite.Result, thresholdPct, sloPct float64, missOK *regexp.Regexp) (lines, slow, failures []string) {
	baseByName := make(map[string]benchsuite.Result, len(base))
	for _, b := range base {
		baseByName[b.Name] = b
	}
	curByName := make(map[string]bool, len(cur))
	for _, c := range cur {
		curByName[c.Name] = true
	}
	for _, b := range base {
		if !curByName[b.Name] {
			if missOK != nil && missOK.MatchString(b.Name) {
				lines = append(lines, fmt.Sprintf("  %-40s missing from this run (exempted by -ignore-missing)", b.Name))
				continue
			}
			lines = append(lines, fmt.Sprintf("  %-40s MISSING from this run (deleted or renamed?)", b.Name))
			failures = append(failures, fmt.Sprintf("%s present in baseline but missing from this run", b.Name))
		}
	}
	for _, c := range cur {
		b, ok := baseByName[c.Name]
		if !ok {
			lines = append(lines, fmt.Sprintf("  %-40s new in this tree, no baseline (skipped)", c.Name))
			continue
		}
		if isLoadEntry(b) && isLoadEntry(c) {
			l, s, f := compareLoad(c, b, sloPct)
			lines = append(lines, l)
			slow = append(slow, s...)
			failures = append(failures, f...)
			continue
		}
		delta := 0.0
		if b.NsPerOp > 0 {
			delta = (c.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		}
		status := "ok"
		if delta > thresholdPct {
			status = "REGRESSION"
			slow = append(slow, c.Name)
			failures = append(failures, fmt.Sprintf("%s ns/op +%.1f%% (limit +%.0f%%)", c.Name, delta, thresholdPct))
		}
		if b.AllocsPerOp == 0 && c.AllocsPerOp > 0 {
			status = "ALLOC REGRESSION"
			failures = append(failures, fmt.Sprintf("%s allocates %d/op, baseline was zero-alloc", c.Name, c.AllocsPerOp))
		}
		lines = append(lines, fmt.Sprintf("  %-40s ns/op %10.1f -> %10.1f (%+6.1f%%)  allocs %3d -> %3d  %s",
			c.Name, b.NsPerOp, c.NsPerOp, delta, b.AllocsPerOp, c.AllocsPerOp, status))
	}
	return lines, slow, failures
}

// compareLoad applies the service-level SLO gates to one load entry.
func compareLoad(c, b benchsuite.Result, sloPct float64) (line string, slow, failures []string) {
	tputDelta := 0.0
	if b.ThroughputRPS > 0 {
		tputDelta = (c.ThroughputRPS - b.ThroughputRPS) / b.ThroughputRPS * 100
	}
	p99Delta := 0.0
	if b.P99Ns > 0 {
		p99Delta = (c.P99Ns - b.P99Ns) / b.P99Ns * 100
	}
	status := "ok"
	if tputDelta < -sloPct {
		status = "SLO THROUGHPUT"
		slow = append(slow, c.Name)
		failures = append(failures, fmt.Sprintf("%s throughput %.1f%% below baseline (floor -%.0f%%)", c.Name, -tputDelta, sloPct))
	}
	if p99Delta > sloPct {
		status = "SLO P99"
		slow = append(slow, c.Name)
		failures = append(failures, fmt.Sprintf("%s p99 +%.1f%% over baseline (ceiling +%.0f%%)", c.Name, p99Delta, sloPct))
	}
	line = fmt.Sprintf("  %-40s req/s %8.1f -> %8.1f (%+6.1f%%)  p99 %10s -> %10s (%+6.1f%%)  %s",
		c.Name, b.ThroughputRPS, c.ThroughputRPS, tputDelta, nsString(b.P99Ns), nsString(c.P99Ns), p99Delta, status)
	return line, slow, failures
}

// rerunNames re-measures exactly the named benchmarks, routing each to
// the suite it came from (function-level vs service-level).
func rerunNames(results []benchsuite.Result, names []string) ([]benchsuite.Result, error) {
	loadEntry := make(map[string]bool, len(results))
	for _, r := range results {
		loadEntry[r.Name] = isLoadEntry(r)
	}
	var benchNames, loadNames []string
	for _, n := range names {
		if loadEntry[n] {
			loadNames = append(loadNames, n)
		} else {
			benchNames = append(benchNames, n)
		}
	}
	var rerun []benchsuite.Result
	if len(benchNames) > 0 {
		got, err := benchsuite.Run(nameFilter(benchNames), nil)
		if err != nil {
			return nil, err
		}
		rerun = append(rerun, got...)
	}
	if len(loadNames) > 0 {
		got, err := benchsuite.RunLoad(nameFilter(loadNames), nil)
		if err != nil {
			return nil, err
		}
		rerun = append(rerun, got...)
	}
	return rerun, nil
}

// nameFilter builds a regexp matching exactly the given benchmark names.
func nameFilter(names []string) *regexp.Regexp {
	quoted := make([]string, len(names))
	for i, n := range names {
		quoted[i] = regexp.QuoteMeta(n)
	}
	return regexp.MustCompile("^(" + strings.Join(quoted, "|") + ")$")
}

// takeBest folds rerun measurements into results, keeping the best of
// each noise-prone metric (minimum ns/op and latency percentiles,
// maximum throughput) — best-of-N judgement for retries. Deterministic
// fields (allocations) are never replaced.
func takeBest(results, rerun []benchsuite.Result) []benchsuite.Result {
	byName := make(map[string]benchsuite.Result, len(rerun))
	for _, r := range rerun {
		byName[r.Name] = r
	}
	for i, r := range results {
		nr, ok := byName[r.Name]
		if !ok {
			continue
		}
		if isLoadEntry(r) {
			if nr.ThroughputRPS > r.ThroughputRPS {
				results[i].ThroughputRPS = nr.ThroughputRPS
			}
			if nr.NsPerOp < r.NsPerOp {
				results[i].NsPerOp = nr.NsPerOp
			}
			if nr.P50Ns < r.P50Ns {
				results[i].P50Ns = nr.P50Ns
			}
			if nr.P95Ns < r.P95Ns {
				results[i].P95Ns = nr.P95Ns
			}
			if nr.P99Ns < r.P99Ns {
				results[i].P99Ns = nr.P99Ns
			}
		} else if nr.NsPerOp < r.NsPerOp {
			results[i] = nr
		}
	}
	return results
}

// nextPR returns one past the highest BENCH_<n>.json in dir, so an
// unnumbered run extends the trajectory instead of overwriting an
// earlier snapshot. An empty dir starts at 1.
func nextPR(dir string) int {
	matches, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	high := 0
	for _, m := range matches {
		base := filepath.Base(m)
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(base, "BENCH_"), ".json"))
		if err == nil && n > high {
			high = n
		}
	}
	return high + 1
}
