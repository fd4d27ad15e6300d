GO ?= go

.PHONY: check fmt vet build lint test race shard-check bench bench-smoke reach fuzz-smoke

check: fmt vet build lint test race shard-check bench bench-smoke reach fuzz-smoke

fmt:
	@out="$$(gofmt -s -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# cescalint: the determinism-enforcing static-analysis suite (walltime,
# globalrand, maporder, fpreduce, importboundary, shardsafe, pragma
# staleness, policy completeness). Package sets live in cescalint.policy.
# See DESIGN.md "Determinism invariants" and README "Lint".
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
# cross-shard workload matrix and the lane/heap equivalence test (sorted and
# unsorted lane traffic, multi-sender posts and cancels of every kind against
# the lane-less reference), then the tenant harness's matrix (macro-day,
# macro-fleet, macro-trace, macro-chaos across shard and worker counts, and
# side by side on the engine's worker pool), requiring event-for-event
# equivalence with the single-queue reference and byte-identical tables,
# traces and metrics everywhere, pinned to testdata/macro.digests.
shard-check:
	$(GO) test -run 'TestCrossShardWorkloadMatrix|TestLookaheadWindowsMatchSingleWindow|TestShardScheduleAndMerge|TestLanesMatchReferenceHeap' ./internal/sim/
	$(GO) test -run 'TestMacroMatrix|TestMacroScenariosRunConcurrently|TestMacroDigests' ./internal/experiments/

# The zero-alloc gates, then a smoke run of the numeric-path benchmarks. The
# gates are the allocation contract: every test named Test...ZeroAlloc, found
# by name so a new one cannot be left out, fails hard if the steady state it
# drives touches the heap (testing.AllocsPerRun == 0 on the fit, replay,
# observe, decision, kernel, fault-query, SGD-epoch, faas (admission, release
# and both entry points' denial) and traffic paths; mallocs per arrival on the
# shared-account pipeline and on the open-loop tenant, macro-day and
# macro-chaos with their denials, retries, drops and kills). The kernel's
# TestLaneChurnReusesSlots counts arena slots instead: steady
# cancel-the-oldest churn on a lane must reuse them. The benchmarks (ml
# kernels, dataset caches, DES kernel, decision path) run at a fixed small
# iteration count: fast enough for CI, enough to catch kernels that re-grow
# allocations. internal/fit benches its one solver (Fitter: cold, warm to
# convergence, and the fleet tuning's capped refit of a sliding window),
# internal/cost its one grid scan and table lookups. Measured runs are
# `go run ./cmd/bench [-layers]`; see benchmark/README.md.
bench:
	$(GO) test -run ZeroAlloc ./...
	$(GO) test -run TestLaneChurnReusesSlots ./internal/sim/
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=100x \
		./internal/ml/ ./internal/dataset/
	$(GO) test -run '^$$' -bench . -benchtime=100x \
		./internal/sim/ ./internal/cost/ ./internal/fit/ ./internal/scheduler/ ./internal/traffic/

# bench-smoke: the measurement harness's own checks on one short execution
# per workload — the golden paper digest, trace-s8w2 == trace-s1, the TOTAL
# sums and the arrival ledgers. It writes to a temporary directory, so
# benchmark/out stays as the last measured run left it.
bench-smoke:
	$(GO) run ./cmd/bench -smoke -out "$$(mktemp -d)"

# reach: the coverage audit of the shipped commands. Builds cebench, cescale,
# cescalint and the examples with coverage over the whole module, runs a fixed
# command list, and fails on a function outside cmd/bench that none of them
# ever executes unless scripts/reach.keep says why it stays (or on a keep line
# that no longer applies). See DESIGN.md "Reach".
reach:
	sh scripts/reach.sh

# fuzz-smoke: a few seconds of each native fuzz target: the kernel (random
# schedule/batch/cancel/Step/RunUntil programs — schedules on the heap and
# through lanes with sorted and unsorted keys, cancels of a lane's oldest
# entry, posts from four sender shards in three delay classes — against the
# container/heap reference, which has one queue and no lanes), the
# Levenberg-Marquardt fitter (sliding fits of arbitrary finite series against
# refFitter, the solver before its kernels moved into locals) and
# cescalint's two parsers (policy lines, //cescalint: directives). New inputs
# stay in the build cache; a failing one is written to the package's
# testdata/fuzz/ and from then on runs with `go test`. The kernel's seed
# programs are kilobytes long, and the engine's default minute of minimizing
# each input that reaches new code would eat the whole smoke: one second.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzKernelOps -fuzztime 10s -fuzzminimizetime 1s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzFitterFit -fuzztime 5s ./internal/fit/
	$(GO) test -run '^$$' -fuzz FuzzParsePolicy -fuzztime 5s ./internal/lint/
	$(GO) test -run '^$$' -fuzz FuzzParseDirective -fuzztime 5s ./internal/lint/
