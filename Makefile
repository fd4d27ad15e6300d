GO ?= go

.PHONY: check fmt vet build lint test race shard-check bench fuzz-smoke

check: fmt vet build lint test race shard-check bench

fmt:
	@out="$$(gofmt -s -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# cescalint: the determinism- and allocation-enforcing static-analysis
# suite (walltime, globalrand, maporder, fpreduce, importboundary,
# shardsafe, hotpath, pragma staleness, policy completeness). Package sets
# live in cescalint.policy; //cescalint:hotpath marks functions that must
# be allocation-free in steady state. See DESIGN.md "Determinism
# invariants" and README "Lint" for the annotation/pragma workflow.
lint:
	$(GO) run ./cmd/cescalint ./...

# Includes the observability determinism gate (cmd/cebench
# TestTraceExportGate: trace, metrics and stdout bytes at -parallel 1 vs 8
# vs tracing off).
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# shard-check: the sharded-kernel determinism gate. Runs the kernel's
# cross-shard workload matrix, then the tenant harness's matrix (macro-day,
# macro-fleet, macro-trace, macro-chaos across shard and worker counts, and
# side by side on the engine's worker pool), requiring event-for-event
# equivalence with the single-queue reference and byte-identical tables,
# traces and metrics everywhere, pinned to testdata/macro.digests.
shard-check:
	$(GO) test -run 'TestCrossShardWorkloadMatrix|TestLookaheadWindowsMatchSingleWindow|TestShardScheduleAndMerge' ./internal/sim/
	$(GO) test -run 'TestMacroMatrix|TestMacroScenariosRunConcurrently|TestMacroDigests' ./internal/experiments/

# Smoke-run the numeric-path benchmarks (ml kernels, dataset caches, DES
# kernel, decision path) at a fixed small iteration count: fast enough for
# CI, enough to catch kernels that re-grow allocations. The zero-alloc gates
# (testing.AllocsPerRun on the steady-state fit/replay/observe/decision paths) run
# first and fail hard if the hot paths touch the heap (the kernel's gate counts
# arena slots instead: steady cancel churn must reuse them). internal/fit
# benches its one solver (Fitter, cold and warm), internal/cost its one grid
# scan and table lookups; BenchmarkCancelChurn runs long enough to pass its
# 600 s hold, where a canceled event's keep shows. Measured runs are
# `go run ./cmd/bench [-layers]`; see benchmark/README.md.
bench:
	$(GO) test -run 'TestFitterZeroAlloc|TestRealEngineCursorZeroAlloc|TestFixedWindowObserveZeroAlloc|TestDecisionZeroAlloc' \
		./internal/fit/ ./internal/workload/ ./internal/predictor/ ./internal/scheduler/
	$(GO) test -run 'TestHistObserveZeroAlloc|TestCursorNextZeroAlloc|TestInvoke1SteadyStateZeroAlloc|TestInvoke1DenialZeroAlloc|TestCancelChurnReusesSlots' \
		./internal/obs/ ./internal/traffic/ ./internal/faas/ ./internal/sim/
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=100x \
		./internal/ml/ ./internal/dataset/
	$(GO) test -run '^$$' -bench . -benchtime=100x \
		./internal/sim/ ./internal/cost/ ./internal/fit/ ./internal/scheduler/ ./internal/traffic/
	$(GO) test -run '^$$' -bench BenchmarkCancelChurn -benchmem -benchtime=100000x ./internal/sim/

# fuzz-smoke: ten seconds of the kernel's native fuzz target (random
# schedule/batch/cancel/Step/RunUntil programs against the container/heap
# reference). New inputs stay in the build cache; a failing one is written to
# internal/sim/testdata/fuzz/ and from then on runs with `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzKernelOps -fuzztime 10s ./internal/sim/
