#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload serve-warm --seed 1 --seconds 20 --trace 0
#
# Every build product (binary, Go build cache, temporary files) stays under
# .bench_build in the repository root, and the build never touches the
# network. Outside a full checkout (no ../go.mod and ../internal beside this
# directory) the build fails and the script exits non-zero without output.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
