#!/usr/bin/env bash
# The benchmark's one command.
#
#   bash benchmark/run.sh --workload sweep_cold --seed 1 --seconds 10 --trace 0
#       builds the benchmark and runs one workload; the last line of standard
#       output is its result (this is the command BENCHMARK.json names).
#   bash benchmark/run.sh
#       runs every workload untraced, then traced, and leaves
#       benchmark/out/results.json, layers.json and trace.json — what a CI
#       step would call and keep.
#
# Everything the build writes (Go's build cache included) stays in
# .bench_build/ inside the checkout, and nothing is fetched.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOPROXY=off GOTOOLCHAIN=local

go build -buildvcs=false -o "$build/benchmark" ./benchmark

if [ "$#" -gt 0 ]; then
	exec "$build/benchmark" "$@"
fi
"$build/benchmark" -seed 1 -o benchmark/out/results.json
"$build/benchmark" -seed 1 -trace 1 -o benchmark/out/layers.json
