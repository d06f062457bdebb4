#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# driver's arguments:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (Go build cache, temporary files, the binary)
# goes under .bench_build/ in the checkout, so nothing outside it is
# touched. The first run in a fresh checkout compiles the standard library
# pieces too; later runs find everything cached and start in well under a
# second.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/rcep-benchmark" ./benchmark
exec "$build/rcep-benchmark" "$@"
