#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of the
# checkout this script lives in. Everything the build and the run write
# (Go build cache, the binary, server data directories) stays under
# .bench_build/ in that checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
# The program is built from the repository's sources: without them (a
# directory holding only the benchmark) there is nothing to measure.
[ -f go.mod ] || { echo "benchmark/run.sh: no go.mod in $PWD: run from a checkout of the repository" >&2; exit 2; }
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/pmbench" ./benchmark
exec "$build/pmbench" "$@"
