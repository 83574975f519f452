package main

import "strings"

// metricDef names a reported metric, its unit and which way is better.
// The lists mirror BENCHMARK.json (a test keeps them in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of the untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_us_per_req", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"predict_replay_s", "s", "lower"},
	{"substrate_replay_s", "s", "lower"},
	{"pred_error_pct", "%", "lower"},
}

// perLayer are the metrics of the traced run (--trace 1). A layer the
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"gateway.self_us_p50", "us", "lower"},
	{"gateway.self_us_p99", "us", "lower"},
	{"gateway.upstream_calls_per_req", "calls/req", "lower"},
	{"gateway.busiest_share", "fraction", "lower"},
	{"gateway.refused", "count", "lower"},
	{"api.decode_us", "us", "lower"},
	{"api.resolve_us", "us", "lower"},
	{"api.req_bytes", "bytes", "lower"},
	{"schemelang.hash_us", "us", "lower"},
	{"server.predict_hit_us", "us", "lower"},
	{"server.predict_miss_us", "us", "lower"},
	{"server.miss_overhead_us", "us", "lower"},
	{"server.cache_hit_ratio", "fraction", "higher"},
	{"report.encode_us", "us", "lower"},
	{"report.resp_bytes", "bytes", "lower"},
	{"predict.times_us_p50", "us", "lower"},
	{"predict.times_us_p99", "us", "lower"},
	{"predict.static_us", "us", "lower"},
	{"predict.evals_per_times", "count", "lower"},
	{"predict.engine_self_s", "s", "lower"},
	{"model.penalties_us", "us", "lower"},
	{"model.penalties_calls", "count", "lower"},
	{"model.active_comms_mean", "count", "lower"},
	{"netsim.advance_us", "us", "lower"},
	{"netsim.advance_calls", "count", "lower"},
	{"netsim.start_flow_us", "us", "lower"},
	{"netsim.completions_per_advance", "count", "higher"},
	{"replay.self_s", "s", "lower"},
	{"replay.transfers", "count", "higher"},
	{"fleet.create_us", "us", "lower"},
	{"fleet.add_job_us", "us", "lower"},
	{"fleet.delete_job_us", "us", "lower"},
	{"fleet.placements_us_p50", "us", "lower"},
	{"fleet.placements_us_p99", "us", "lower"},
	{"fleet.candidates_per_ranking", "count", "lower"},
	{"runtime.allocs_per_req", "count", "lower"},
	{"runtime.alloc_bytes_per_req", "bytes", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"bench.throughput_rps", "req/s", "higher"},
	{"bench.latency_p50_us", "us", "lower"},
	{"bench.latency_p99_us", "us", "lower"},
	{"bench.yardstick_us", "us", "lower"},
	{"bench.gen_lag_us_p99", "us", "lower"},
	{"bench.latency_samples", "count", "higher"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

// absentLayers lists, per workload, the per-layer metrics (by name or
// name prefix) whose layer does no work there: serve-cached never
// misses, serve-compute has no gateway and never hits, and the replay
// workload has no serving layers. The traced run reports them as 0.
var absentLayers = map[string][]string{
	"serve-cached":    {"predict.", "model.", "netsim.", "replay.", "fleet.", "server.predict_miss_us", "server.miss_overhead_us"},
	"serve-compute":   {"gateway.", "netsim.", "replay.", "server.predict_hit_us", "predict.engine_self_s"},
	"replay-multijob": {"gateway.", "api.", "schemelang.", "server.", "report.", "fleet.", "predict.times_us_p50", "predict.times_us_p99", "predict.static_us", "predict.evals_per_times"},
}

// zeroAbsent reports the workload's absent per-layer metrics as 0. Any
// other metric left unmeasured fails the run when it is printed.
func zeroAbsent(res *result, workload string) {
	for _, d := range perLayer {
		if _, found := res.metrics[d.name]; found {
			continue
		}
		for _, prefix := range absentLayers[workload] {
			if strings.HasPrefix(d.name, prefix) {
				res.set(d.name, 0, d.unit, 0)
				break
			}
		}
	}
}
