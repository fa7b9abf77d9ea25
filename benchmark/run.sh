#!/usr/bin/env bash
# Builds the benchmark from source and runs it, the way the driver does:
#
#   bash benchmark/run.sh --workload tgd-open --seed 1 --seconds 15 --trace 0
#
# Everything the build writes stays inside the checkout, under
# .bench_build/ (Go's build cache included), so a run touches nothing
# outside it. The first build in a fresh checkout compiles the standard
# library too and takes about a minute; later ones take a second.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/tgbench" ./benchmark
exec "$build/tgbench" "$@"
