// Latency aggregation and logging: per-class throughput and percentile
// reports over a RunResult's samples, the JSONL latency log, and the
// JSON report document consumed by scripts and CI.
package loadgen

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"bwshare/internal/gateway"
)

// ClassStats summarizes one request class (or, for Overall, the whole
// run). Latency fields are nanoseconds in JSON for lossless math.
type ClassStats struct {
	Class         string  `json:"class"`
	Count         int     `json:"count"`
	Errors        int     `json:"errors"` // non-2xx answers and transport failures
	ThroughputRPS float64 `json:"throughput_rps"`
	MeanNs        float64 `json:"mean_ns"`
	P50Ns         float64 `json:"p50_ns"`
	P95Ns         float64 `json:"p95_ns"`
	P99Ns         float64 `json:"p99_ns"`
	MaxNs         float64 `json:"max_ns"`
}

// Report is the aggregated outcome of a load run.
type Report struct {
	WallSeconds float64      `json:"wall_seconds"`
	Overall     ClassStats   `json:"overall"`
	Classes     []ClassStats `json:"classes"`
	// Gateway is the fleet view when the target was a gateway: its
	// admission/health counters and the per-upstream routing split.
	// Absent when loading a worker directly.
	Gateway *gateway.Stats `json:"gateway,omitempty"`
}

// percentile returns the q-quantile (0 < q <= 1) of an ascending-sorted
// latency slice using the nearest-rank method.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(float64(float64(len(sorted))*q)+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func buildStats(class string, samples []Sample, wall time.Duration) ClassStats {
	st := ClassStats{Class: class, Count: len(samples)}
	lat := make([]time.Duration, 0, len(samples))
	var sum time.Duration
	for _, s := range samples {
		if !s.OK() {
			st.Errors++
		}
		d := time.Duration(s.LatencyUS) * time.Microsecond
		lat = append(lat, d)
		sum += d
	}
	if len(lat) == 0 {
		return st
	}
	sortDurations(lat)
	if wall > 0 {
		st.ThroughputRPS = float64(len(lat)) / wall.Seconds()
	}
	st.MeanNs = float64(sum.Nanoseconds()) / float64(len(lat))
	st.P50Ns = float64(percentile(lat, 0.50).Nanoseconds())
	st.P95Ns = float64(percentile(lat, 0.95).Nanoseconds())
	st.P99Ns = float64(percentile(lat, 0.99).Nanoseconds())
	st.MaxNs = float64(lat[len(lat)-1].Nanoseconds())
	return st
}

// BuildReport aggregates a run into per-class and overall statistics.
// Classes appear in sorted name order, so reports are deterministic.
func BuildReport(res RunResult) Report {
	byClass := map[string][]Sample{}
	for _, s := range res.Samples {
		byClass[s.Class] = append(byClass[s.Class], s)
	}
	names := make([]string, 0, len(byClass))
	for c := range byClass {
		names = append(names, c)
	}
	sort.Strings(names)
	rep := Report{
		WallSeconds: res.Wall.Seconds(),
		Overall:     buildStats("overall", res.Samples, res.Wall),
	}
	for _, c := range names {
		rep.Classes = append(rep.Classes, buildStats(c, byClass[c], res.Wall))
	}
	return rep
}

// Text renders the report as an aligned table.
func (r Report) Text(w io.Writer) {
	fmt.Fprintf(w, "wall %.2fs  %d requests  %.1f req/s  %d errors\n",
		r.WallSeconds, r.Overall.Count, r.Overall.ThroughputRPS, r.Overall.Errors)
	fmt.Fprintf(w, "%-16s %8s %6s %10s %10s %10s %10s\n",
		"class", "count", "errors", "req/s", "p50", "p95", "p99")
	rows := append([]ClassStats{r.Overall}, r.Classes...)
	for _, st := range rows {
		fmt.Fprintf(w, "%-16s %8d %6d %10.1f %10s %10s %10s\n",
			st.Class, st.Count, st.Errors, st.ThroughputRPS,
			time.Duration(st.P50Ns), time.Duration(st.P95Ns), time.Duration(st.P99Ns))
	}
	if r.Gateway != nil {
		g := r.Gateway
		fmt.Fprintf(w, "gateway: %d requests  %d rejected  %d unavailable  %d retries  %d bad-gateway\n",
			g.Requests, g.Rejected, g.Unavailable, g.Retries, g.BadGateway)
		for _, up := range g.Upstreams {
			fmt.Fprintf(w, "  upstream %-12s %8d requests %6d errors  healthy=%v\n",
				up.Name, up.Requests, up.Errors, up.Healthy)
		}
	}
}

// WriteLatencyLog writes one JSON sample per line — the raw per-request
// latency log uploaded as a CI artifact.
func WriteLatencyLog(w io.Writer, res RunResult) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range res.Samples {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
