#!/usr/bin/env bash
# Builds the benchmark from source in the checkout and runs it with the
# given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload paper-serve --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady --workload paper-serve --runs 10
#
# Everything it writes (Go build cache, binary, run state, traces) stays
# under .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
