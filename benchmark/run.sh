#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given: bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# The build cache, the binary and every file the run writes stay under
# .bench_build in the checkout; nothing is fetched.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/go-cache" GOTMPDIR="$PWD/.bench_build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
