#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json "command"): build the
# benchmark from source inside the checkout, then run it with the driver's
# arguments. Everything the Go toolchain writes — build cache, module
# cache, temporary files, the binary — stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: no repository around bench/ (go.mod, internal/): nothing to measure" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
