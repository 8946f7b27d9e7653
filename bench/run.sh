#!/usr/bin/env bash
# Entry command of BENCHMARK.json: build the benchmark from source inside the
# checkout (build cache included) and run it with the driver's arguments.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bdibench" .
exec "$build/bdibench" "$@"
