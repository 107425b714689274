#!/usr/bin/env bash
# Entry point named in BENCHMARK.json. Run from the root of a checkout:
#
#   bash bench/perf/bench.sh --workload churn --seed 1 --seconds 20 --trace 0
#
# Builds the harness from source and runs its driver-facing mode. Everything
# the build writes (binary, Go build cache) stays inside the checkout, under
# .bench_build/.
set -euo pipefail

mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local GOWORK=off
go build -o .bench_build/perf ./bench/perf
exec .bench_build/perf bench "$@"
