#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the benchmark
# from source with every Go cache inside the checkout, then run it with
# the driver's arguments. Run from the root of a checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/bench" ./internal/bench
exec "$build/bench" "$@"
