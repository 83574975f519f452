package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"bwshare/internal/benchsuite"
)

func TestListPrintsSuite(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ChurnAlloc/inc/gige/8jobs", "ShardChurn/gige/64jobs/seq", "Sweep/exp-rnd/8"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %q:\n%s", want, out.String())
		}
	}
}

func TestNextPR(t *testing.T) {
	dir := t.TempDir()
	if got := nextPR(dir); got != 1 {
		t.Errorf("empty dir: nextPR = %d, want 1", got)
	}
	for _, name := range []string{"BENCH_2.json", "BENCH_10.json", "BENCH_x.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := nextPR(dir); got != 11 {
		t.Errorf("nextPR = %d, want 11 (one past BENCH_10.json)", got)
	}
}

func TestBadFilter(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-filter", "("}, &out); err == nil {
		t.Fatal("want error for invalid regexp")
	}
	if err := run([]string{"-filter", "no-such-benchmark"}, &out); err == nil {
		t.Fatal("want error when nothing matches")
	}
}

// TestWritesSnapshot runs a cheap zero-allocation benchmark and checks
// the JSON document shape.
func TestWritesSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real benchmark")
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	var out bytes.Buffer
	if err := run([]string{"-filter", "^ChurnAlloc/inc/gige/8jobs$", "-out", path, "-pr", "42"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "BenchmarkChurnAlloc/inc/gige/8jobs") {
		t.Errorf("missing go-bench progress line:\n%s", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema != "bwshare-bench/v1" || snap.PR != 42 || len(snap.Benchmarks) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	b := snap.Benchmarks[0]
	if b.Name != "ChurnAlloc/inc/gige/8jobs" || b.N <= 0 || b.NsPerOp <= 0 {
		t.Fatalf("benchmark result = %+v", b)
	}
	if b.AllocsPerOp != 0 {
		t.Errorf("steady-state ChurnAlloc allocs/op = %d, want 0", b.AllocsPerOp)
	}
}

func TestCompareResults(t *testing.T) {
	base := []benchsuite.Result{
		{Name: "a", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "b", NsPerOp: 100, AllocsPerOp: 5},
	}
	cur := []benchsuite.Result{
		{Name: "a", NsPerOp: 120, AllocsPerOp: 0}, // +20%: within 25%
		{Name: "b", NsPerOp: 90, AllocsPerOp: 7},  // faster; alloc increase on a non-zero-alloc suite is tolerated
		{Name: "new", NsPerOp: 1, AllocsPerOp: 9}, // no baseline
	}
	lines, slow, failures := compareResults(cur, base, 25, 50, nil)
	if len(failures) != 0 || len(slow) != 0 {
		t.Fatalf("unexpected failures: %v (slow %v)", failures, slow)
	}
	if len(lines) != 3 || !strings.Contains(lines[2], "new in this tree") {
		t.Fatalf("lines = %v", lines)
	}

	cur[0].NsPerOp = 126 // +26%: over threshold
	cur[1].AllocsPerOp = 5
	_, slow, failures = compareResults(cur, base, 25, 50, nil)
	if len(failures) != 1 || !strings.Contains(failures[0], "ns/op +26.0%") {
		t.Fatalf("failures = %v", failures)
	}
	if len(slow) != 1 || slow[0] != "a" {
		t.Fatalf("slow = %v, want [a] (retryable)", slow)
	}

	cur[0].NsPerOp = 100
	cur[0].AllocsPerOp = 1 // alloc regression on a zero-alloc suite
	_, slow, failures = compareResults(cur, base, 25, 50, nil)
	if len(failures) != 1 || !strings.Contains(failures[0], "zero-alloc") {
		t.Fatalf("failures = %v", failures)
	}
	if len(slow) != 0 {
		t.Fatalf("alloc regressions are not retryable, slow = %v", slow)
	}
}

// TestCompareResultsMissingFromRun: a baseline benchmark absent from
// the fresh run (deleted or renamed suite entry) fails the gate instead
// of silently dropping its regression coverage, and is not retried as a
// noisy timing.
func TestCompareResultsMissingFromRun(t *testing.T) {
	base := []benchsuite.Result{
		{Name: "kept", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "gone", NsPerOp: 100, AllocsPerOp: 0},
	}
	cur := []benchsuite.Result{
		{Name: "kept", NsPerOp: 100, AllocsPerOp: 0},
	}
	lines, slow, failures := compareResults(cur, base, 25, 50, nil)
	if len(failures) != 1 || !strings.Contains(failures[0], "gone") || !strings.Contains(failures[0], "missing") {
		t.Fatalf("failures = %v, want one missing-benchmark failure", failures)
	}
	if len(slow) != 0 {
		t.Fatalf("missing benchmarks are not retryable, slow = %v", slow)
	}
	found := false
	for _, l := range lines {
		if strings.Contains(l, "gone") && strings.Contains(l, "MISSING") {
			found = true
		}
	}
	if !found {
		t.Fatalf("report lines lack a MISSING entry: %v", lines)
	}
}

// TestCompareResultsIgnoreMissing: -ignore-missing exempts matching
// baseline entries from the missing-benchmark failure without touching
// non-matching ones.
func TestCompareResultsIgnoreMissing(t *testing.T) {
	base := []benchsuite.Result{
		{Name: "kept", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "ShardChurn/gige/64jobs/x8", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "gone", NsPerOp: 100, AllocsPerOp: 0},
	}
	cur := []benchsuite.Result{
		{Name: "kept", NsPerOp: 100, AllocsPerOp: 0},
	}
	missOK := regexp.MustCompile(`^(ShardChurn|ShardReplay)/`)
	lines, _, failures := compareResults(cur, base, 25, 50, missOK)
	if len(failures) != 1 || !strings.Contains(failures[0], "gone") {
		t.Fatalf("failures = %v, want only the non-exempt missing entry", failures)
	}
	exempted := false
	for _, l := range lines {
		if strings.Contains(l, "ShardChurn") && strings.Contains(l, "exempted") {
			exempted = true
		}
	}
	if !exempted {
		t.Fatalf("report lines lack the exempted entry: %v", lines)
	}
}

func TestTakeBestAndNameFilter(t *testing.T) {
	results := []benchsuite.Result{
		{Name: "a", NsPerOp: 200},
		{Name: "b", NsPerOp: 100},
	}
	rerun := []benchsuite.Result{
		{Name: "a", NsPerOp: 150},
		{Name: "b", NsPerOp: 300},
	}
	out := takeBest(results, rerun)
	if out[0].NsPerOp != 150 || out[1].NsPerOp != 100 {
		t.Errorf("takeBest = %v", out)
	}
	re := nameFilter([]string{"ChurnAlloc/inc/gige/8jobs", "a+b"})
	if !re.MatchString("ChurnAlloc/inc/gige/8jobs") || !re.MatchString("a+b") {
		t.Error("nameFilter should match listed names exactly")
	}
	if re.MatchString("ChurnAlloc/inc/gige/8jobsx") || re.MatchString("aab") {
		t.Error("nameFilter must not match other names")
	}
}

// TestCompareLoadSLO: service-level entries are gated on throughput
// floor and p99 ceiling, not ns/op or allocations.
func TestCompareLoadSLO(t *testing.T) {
	base := []benchsuite.Result{
		{Name: "Load/mixed/c4", N: 100, NsPerOp: 1e6, ThroughputRPS: 1000, P50Ns: 5e5, P95Ns: 2e6, P99Ns: 4e6},
	}
	ok := []benchsuite.Result{
		// Throughput -40%, p99 +40%: inside a 50% SLO band. Allocations
		// and ns/op blowups on load entries are irrelevant.
		{Name: "Load/mixed/c4", N: 100, NsPerOp: 9e9, AllocsPerOp: 999, ThroughputRPS: 600, P50Ns: 5e5, P95Ns: 2e6, P99Ns: 5.6e6},
	}
	lines, slow, failures := compareResults(ok, base, 25, 50, nil)
	if len(failures) != 0 || len(slow) != 0 {
		t.Fatalf("within-SLO load entry failed: %v (slow %v)", failures, slow)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "req/s") {
		t.Fatalf("load line should report req/s and p99: %v", lines)
	}

	slowTput := []benchsuite.Result{
		{Name: "Load/mixed/c4", N: 100, NsPerOp: 1e6, ThroughputRPS: 400, P99Ns: 4e6},
	}
	_, slow, failures = compareResults(slowTput, base, 25, 50, nil)
	if len(failures) != 1 || !strings.Contains(failures[0], "throughput") {
		t.Fatalf("throughput drop of 60%% must fail the 50%% floor: %v", failures)
	}
	if len(slow) != 1 {
		t.Fatalf("throughput failures are retryable, slow = %v", slow)
	}

	blownP99 := []benchsuite.Result{
		{Name: "Load/mixed/c4", N: 100, NsPerOp: 1e6, ThroughputRPS: 1000, P99Ns: 6.1e6},
	}
	_, slow, failures = compareResults(blownP99, base, 25, 50, nil)
	if len(failures) != 1 || !strings.Contains(failures[0], "p99") {
		t.Fatalf("p99 blowout of +52%% must fail the 50%% ceiling: %v", failures)
	}
	if len(slow) != 1 {
		t.Fatalf("p99 failures are retryable, slow = %v", slow)
	}
}

// TestTakeBestLoadEntries: retries fold field-wise best measurements
// for load entries (max throughput, min percentiles).
func TestTakeBestLoadEntries(t *testing.T) {
	results := []benchsuite.Result{
		{Name: "Load/x", NsPerOp: 100, ThroughputRPS: 500, P50Ns: 10, P95Ns: 20, P99Ns: 30},
	}
	rerun := []benchsuite.Result{
		{Name: "Load/x", NsPerOp: 120, ThroughputRPS: 700, P50Ns: 15, P95Ns: 18, P99Ns: 25},
	}
	out := takeBest(results, rerun)
	got := out[0]
	if got.ThroughputRPS != 700 || got.NsPerOp != 100 || got.P50Ns != 10 || got.P95Ns != 18 || got.P99Ns != 25 {
		t.Errorf("takeBest load merge = %+v", got)
	}
}

// TestBaselineValidation: a missing, malformed, wrong-schema or
// empty-in-scope baseline is a loud error, never a silent pass.
func TestBaselineValidation(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	if _, err := loadBaseline(filepath.Join(dir, "absent.json"), nil, true, &out); err == nil {
		t.Error("missing baseline should error")
	}
	if _, err := loadBaseline(write("bad.json", "not json"), nil, true, &out); err == nil {
		t.Error("malformed baseline should error")
	}
	if _, err := loadBaseline(write("schema.json", `{"schema":"other/v9","benchmarks":[{"name":"a"}]}`), nil, true, &out); err == nil {
		t.Error("wrong schema should error")
	}
	if _, err := loadBaseline(write("empty.json", `{"schema":"bwshare-bench/v1","benchmarks":[]}`), nil, true, &out); err == nil {
		t.Error("baseline with nothing in scope should error")
	}
	// Load entries drop out of scope under -load=false; if that empties
	// the baseline, the gate must refuse to run.
	loadOnly := `{"schema":"bwshare-bench/v1","benchmarks":[{"name":"Load/mixed/c4","throughput_rps":100,"p99_ns":1}]}`
	if _, err := loadBaseline(write("loadonly.json", loadOnly), nil, false, &out); err == nil {
		t.Error("load-only baseline with -load=false should error")
	}
	out.Reset()
	good := `{"schema":"bwshare-bench/v1","pr":7,"benchmarks":[{"name":"a","ns_per_op":1}]}`
	base, err := loadBaseline(write("good.json", good), nil, true, &out)
	if err != nil {
		t.Fatalf("valid baseline rejected: %v", err)
	}
	if len(base.Benchmarks) != 1 {
		t.Errorf("baseline kept %d benchmarks, want 1", len(base.Benchmarks))
	}
	if !strings.Contains(out.String(), "good.json") || !strings.Contains(out.String(), "PR 7") {
		t.Errorf("check header must name the baseline file and PR:\n%s", out.String())
	}
}

// TestCheckMode runs the real -check flow against synthetic baselines
// using a cheap zero-allocation benchmark.
func TestCheckMode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real benchmark")
	}
	dir := t.TempDir()
	writeBase := func(name string, ns float64, allocs int64) string {
		snap := snapshot{
			Schema: "bwshare-bench/v1", PR: 1,
			Benchmarks: []benchsuite.Result{{Name: "ChurnAlloc/inc/gige/8jobs", N: 1, NsPerOp: ns, AllocsPerOp: allocs}},
		}
		data, _ := json.Marshal(snap)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	generous := writeBase("generous.json", 1e12, 0)
	var out bytes.Buffer
	if err := run([]string{"-check", "-baseline", generous, "-filter", "^ChurnAlloc/inc/gige/8jobs$"}, &out); err != nil {
		t.Fatalf("generous baseline should pass: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "check passed") {
		t.Errorf("missing pass summary:\n%s", out.String())
	}
	tight := writeBase("tight.json", 1e-6, 0)
	out.Reset()
	err := run([]string{"-check", "-baseline", tight, "-filter", "^ChurnAlloc/inc/gige/8jobs$"}, &out)
	if err == nil || !strings.Contains(err.Error(), "bench regression") {
		t.Fatalf("tight baseline should fail with a regression, got %v", err)
	}
	if err := run([]string{"-check", "-baseline", filepath.Join(dir, "missing.json")}, &out); err == nil {
		t.Fatal("missing baseline file should error")
	}
	// A baseline entry the fresh (filtered) run no longer produces must
	// fail the gate; baseline entries outside the filter stay out of
	// scope and do not.
	withGone := snapshot{
		Schema: "bwshare-bench/v1", PR: 1,
		Benchmarks: []benchsuite.Result{
			{Name: "ChurnAlloc/inc/gige/8jobs", N: 1, NsPerOp: 1e12, AllocsPerOp: 0},
			{Name: "ChurnAlloc/renamed-away/8jobs", N: 1, NsPerOp: 1e12, AllocsPerOp: 0},
			{Name: "Unrelated/outside-filter", N: 1, NsPerOp: 1e12, AllocsPerOp: 0},
		},
	}
	data, _ := json.Marshal(withGone)
	gonePath := filepath.Join(dir, "gone.json")
	if err := os.WriteFile(gonePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err = run([]string{"-check", "-baseline", gonePath, "-filter", "^ChurnAlloc/"}, &out)
	if err == nil || !strings.Contains(err.Error(), "missing from this run") {
		t.Fatalf("baseline benchmark absent from the run should fail the gate, got %v", err)
	}
	if strings.Contains(err.Error(), "outside-filter") {
		t.Fatalf("baseline entries outside -filter must be out of scope, got %v", err)
	}
}
