#!/usr/bin/env bash
# Builds bwserved, bwgate and the perfbench harness from the checkout in
# the current directory, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload serve-cached --seed 1 --seconds 25 --trace 0
#
# Every build output, Go cache and span file stays under .bench_build
# (or $CARGO_TARGET_DIR when set), inside the checkout.
set -eu
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/bwserved" ] || [ ! -d "$root/cmd/bwgate" ]; then
	echo "perfbench: run from the bwshare repository root (go.mod, cmd/bwserved and cmd/bwgate are missing)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/bin" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/bin/" ./cmd/bwserved ./cmd/bwgate
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -bin "$build/bin" -out "$build/spans" "$@"
