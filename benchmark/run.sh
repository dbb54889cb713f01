#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# Everything the Go toolchain writes (build cache, binary) stays under
# .bench_build/ inside the checkout; arguments pass through unchanged.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/impala-benchmark" .
cd "$root"
exec "$build/impala-benchmark" "$@"
