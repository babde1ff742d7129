#!/usr/bin/env bash
# Entry point the benchmark driver calls (BENCHMARK.json "command"):
# builds the harness from source inside the checkout and runs it. The go
# build cache, temp directory and the go command's own config directory
# (its telemetry counters) are kept under .bench_build so a run reads and
# writes nothing outside the checkout; by hand, `go run ./benchmark ...`
# does the same with your own go cache.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build/gocache .bench_build/gotmp .bench_build/config
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/gotmp"
export XDG_CONFIG_HOME="$PWD/.bench_build/config"
go build -o .bench_build/nrabench ./benchmark
exec .bench_build/nrabench "$@"
