#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything the build writes stays inside the checkout: the Go build cache
# and the binary live under .bench_build/ (git-ignored), and the module has
# no dependencies to download. Run from the repository root:
#
#   bash bench/run.sh --workload serve_read --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -aa 5
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
