#!/bin/sh
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given (see README.md). Run from the repository root:
#
#	sh benchmark/run.sh --workload fetch-ladder --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/; the run's own files go to benchmark/out/.
set -eu
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -o "$build/csaw-benchmark" ./benchmark
exec "$build/csaw-benchmark" "$@"
