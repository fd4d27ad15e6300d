#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command: `go run ./cmd/bench` with every
# file the Go toolchain writes (build cache, link scratch) kept inside the
# checkout, under .bench_build/. Run from the repository root; arguments go
# to cmd/bench unchanged. By hand, `go run ./cmd/bench` does the same with
# your usual build cache.
set -eu
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp" GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR"
exec go run ./cmd/bench "$@"
