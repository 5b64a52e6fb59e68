#!/usr/bin/env bash
# Build the benchmark from source and run it; arguments pass through to the
# binary (see perf/README.md). Everything the build and the run write stays
# inside the checkout, under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C "$root/perf" -o "$build/perfbench" .
exec "$build/perfbench" -out "$build/perf-out" "$@"
