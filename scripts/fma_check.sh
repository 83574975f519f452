#!/bin/sh
# No fused multiply-add in bwshare code. The Go spec lets a compiler
# fuse x*y + z into one FMA, which rounds once, so the same input could
# give different bits on arm64 than on amd64 (which never fuses). An
# explicit float64(...) conversion around the product forbids the
# fusion. This gate cross-compiles every command for GOARCH=arm64 and
# fails if the disassembly of any bwshare/ function holds FMADDD,
# FMSUBD, FNMADDD or FNMSUBD, listing binary, function and source line.
# It needs no arm64 hardware. Used by `make fma-check` and CI.
set -eu

GO=${GO:-go}
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT INT TERM

GOARCH=arm64 $GO build -o "$bin" ./cmd/...

found=0
for b in "$bin"/*; do
	hits=$($GO tool objdump "$b" | awk -v bin="$(basename "$b")" '
		/^TEXT/ { fn = $2 }
		/FMADDD|FMSUBD|FNMADDD|FNMSUBD/ && fn ~ /^bwshare\// { print bin ": " fn " " $1 }
	' | sort -u)
	if [ -n "$hits" ]; then
		echo "$hits"
		found=1
	fi
done
if [ "$found" -ne 0 ]; then
	echo "fma-check: fused multiply-add in bwshare code (wrap the product in float64(...))" >&2
	exit 1
fi
echo "fma-check: no fused multiply-add in $(ls "$bin" | wc -l | tr -d ' ') arm64 commands"
