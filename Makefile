# Tier-1 verification and development targets. `make verify` is the
# canonical local gate and mirrors the CI pipeline: format + vet gates,
# the arm64 fused-multiply-add gate, build, tests, targeted race tests, the bwserved/bwpredict smoke diff
# and the perfbench module's vet + self-test. `make ci` additionally runs the bench-regression check and the
# service-level load + replay gates (separate CI jobs, kept out of
# verify because benchmarks take ~20s).
GO ?= go

.PHONY: build test race bench bench-json bench-check fmt vet fma-check serve smoke load-smoke replay-check gateway-smoke verify ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race covers the concurrency-bearing packages, matching the CI race
# step: the parallel experiment runner, the engines, and the HTTP
# serving layer (worker tier, gateway tier and their binaries). The
# engine packages (netsim, des, predict and the replay driver on top)
# additionally run at -cpu=1,2,8: their results must not depend on
# GOMAXPROCS.
race:
	$(GO) test -race -cpu=1,2,8 ./internal/netsim/... ./internal/des/ ./internal/predict/ ./internal/replay/
	$(GO) test -race ./internal/experiments/ ./internal/fault/ ./internal/server/ ./internal/fleet/ ./internal/gateway/ ./cmd/bwserved/ ./cmd/bwgate/

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-json writes the next perf-trajectory snapshot BENCH_<n>.json via
# cmd/bwbench (full suite; go-bench lines stream to stdout; n is one past
# the highest existing snapshot, or PR=<n> to force). Compare snapshots
# across PRs, or pipe repeated runs into benchstat.
bench-json:
	$(GO) run ./cmd/bwbench $(if $(PR),-pr $(PR))

# bench-check is the CI regression gate: rerun the suite and fail on
# >25% ns/op regression (or any allocation on a zero-alloc suite)
# against the latest committed BENCH_<n>.json, or BASELINE=<path>.
# IGNORE_MISSING=<regexp> exempts matching baseline entries from the
# missing-from-run failure (for gating against an older snapshot).
bench-check:
	$(GO) run ./cmd/bwbench -check $(if $(BASELINE),-baseline $(BASELINE)) $(if $(IGNORE_MISSING),-ignore-missing '$(IGNORE_MISSING)')

# fmt fails (listing the files) if any file needs gofmt; same gate as CI.
fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

# fma-check cross-compiles every command for arm64 and fails if any
# bwshare function holds a fused multiply-add, which would round
# differently than amd64 (see scripts/fma_check.sh).
fma-check:
	sh scripts/fma_check.sh

# serve runs the HTTP prediction service; SERVE_FLAGS passes extra flags
# (e.g. make serve SERVE_FLAGS="-addr 127.0.0.1:9000 -workers 8").
serve:
	$(GO) run ./cmd/bwserved $(SERVE_FLAGS)

# smoke starts bwserved and diffs /v1/predict?format=text against
# bwpredict stdout for catalog schemes — byte-identical or it fails.
smoke:
	sh scripts/smoke.sh

# load-smoke starts bwserved (pinned sizing) and drives a short
# fixed-seed mixed workload with bwload; any failed request fails the
# run. ARTIFACT_DIR=<dir> keeps the latency log and report.
load-smoke:
	sh scripts/load_smoke.sh

# replay-check replays the committed deterministic traffic log
# scripts/testdata/load_replay.golden against a fresh bwserved and fails
# on any behavioral divergence. After an intended behavior change,
# re-record with `sh scripts/replay_check.sh record`.
replay-check:
	sh scripts/replay_check.sh

# gateway-smoke records a fixed-seed stream against a direct worker,
# replays it through a bwgate over two fresh replicas (must be
# byte-identical — zero divergences), then runs a concurrent load pass
# through the gateway and checks both upstreams served. ARTIFACT_DIR
# keeps the logs, recorded stream and fleet report.
gateway-smoke:
	sh scripts/gateway_smoke.sh

# The repository benchmark (perfbench/) is a module of its own, so the
# root `go test ./...` never compiles it; vet and self-test it here.
verify: fmt vet fma-check build test race smoke
	cd perfbench && $(GO) vet . && $(GO) test .

ci: verify bench-check load-smoke replay-check gateway-smoke
