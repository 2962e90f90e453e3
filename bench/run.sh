#!/usr/bin/env bash
# Builds the benchmark from the checkout in the working directory and
# runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload district_local --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files
# and the binary all live under .bench_build/ there, so nothing is
# written outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

(cd "$root/bench" && go build -o "$out/pvbench" .)
exec "$out/pvbench" "$@"
