#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-fig15 --seed 0 --seconds 15 --trace 0
#
# Build outputs, the Go build cache, and the benchmark's scratch files
# all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp"
# The benchmark needs nothing from the network: fail rather than fetch.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPROXY=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
