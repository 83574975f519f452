// Command perfbench is the repository benchmark: three seeded workloads
// (serve-cached, serve-compute, replay-multijob) measured end to end
// with tracing off, and a traced run of the same inputs that splits the
// time by layer. See README.md in this directory for the workloads, the
// metrics and how to run it; run.sh builds and starts it.
//
//	perfbench -bin <dir with bwserved and bwgate> \
//	    --workload serve-cached --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Any failed request or output mismatch makes "correct"
// false and the exit code 1.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported figure. samples, when positive, is the number
// of measurements a percentile or median was taken over.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// result is the outcome of one run.
type result struct {
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string // failed requests and output mismatches
}

func newResult() *result { return &result{metrics: make(map[string]metric)} }

func (r *result) set(name string, v float64, unit string, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unit, samples: samples}
}

// problem records a failed check; it fails the run.
func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// runConfig is the command line of one run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	binDir   string
	outDir   string
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"serve-cached", "serve-compute", "replay-multijob"}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&cfg.binDir, "bin", ".bench_build/bin", "directory holding the bwserved and bwgate binaries")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !emit(cfg, res) {
		os.Exit(1)
	}
}

// run dispatches to the workload.
func run(cfg runConfig) (*result, error) {
	switch cfg.workload {
	case "serve-cached":
		return runServing(cfg, newCachedGen(cfg.seed))
	case "serve-compute":
		return runServing(cfg, newComputeGen(cfg.seed))
	case "replay-multijob":
		return runReplay(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

// emit prints provenance, one line per metric and the result object,
// and reports whether the run was correct.
func emit(cfg runConfig, res *result) bool {
	prov := provenance(cfg)
	line, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", line)
	for _, p := range res.problems {
		fmt.Printf("problem %s\n", p)
	}
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.metrics[name]
		if m.samples > 0 {
			fmt.Printf("metric %-32s %14.6g %-9s samples=%d\n", name, m.Value, m.Unit, m.samples)
		} else {
			fmt.Printf("metric %-32s %14.6g %s\n", name, m.Value, m.Unit)
		}
	}
	failed := res.failed + len(res.problems)
	attempted := max(res.attempted, 1)
	fmt.Printf("fail_frac %.6g (%d failed or wrong of %d attempted)\n", float64(failed)/float64(attempted), failed, attempted)
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, make(map[string]metric)}
	for _, d := range want {
		m, found := res.metrics[d.name]
		if !found {
			out.Correct = false
			fmt.Printf("problem metric %s was not measured\n", d.name)
			continue
		}
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			// JSON has no infinity: a latency over failed requests is
			// reported as the largest finite number (the run is failed).
			m.Value = math.MaxFloat64
		}
		out.Metrics[d.name] = metric{Value: m.Value, Unit: d.unit}
	}
	line, _ = json.Marshal(out)
	fmt.Println(string(line))
	return out.Correct
}

// provenance describes the machine, toolchain and source of a run.
func provenance(cfg runConfig) map[string]any {
	commit := "unknown"
	git := exec.Command("git", "rev-parse", "HEAD")
	// Only this directory's own repository: git must not look upwards.
	git.Env = append(os.Environ(), "GIT_DIR=.git")
	if out, err := git.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"cpu":           cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest("."),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, found := strings.Cut(line, ":"); found && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
