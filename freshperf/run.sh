#!/usr/bin/env bash
# Builds the freshperf benchmark from the sources of the checkout it is run
# in, then runs it. Run from the repository root:
#
#   bash freshperf/run.sh --workload query-miss --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary, per-run temp dirs and span dumps all live
# under .bench_build/ in the checkout; nothing is fetched from the network.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

(cd "$root/freshperf" && go build -o "$out/freshperf" .)
exec "$out/freshperf" -workdir "$out" "$@"
