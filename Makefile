GO ?= go

.PHONY: check fmt vet build test race shard-check bench bench-smoke reach fuzz-smoke identity rss-ab

check: fmt vet build test race shard-check bench bench-smoke reach fuzz-smoke

fmt:
	@out="$$(gofmt -s -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; fi

# The second line keeps the portable path compiling: on amd64 the ml row
# kernels, sim's polar multipliers, the planner's exact-DP sweeps and the
# fitter's normal-equation pass are assembly (checked by vet's asmdecl),
# elsewhere Go loops.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...

build:
	$(GO) build ./...

# Includes the determinism policy (the root TestDeterminismPolicy; see
# DESIGN.md "Determinism invariants") and the observability determinism gate
# (cmd/cebench TestTraceExportGate: trace, metrics and stdout bytes at
# -parallel 1 vs 8 vs tracing off).
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# shard-check: the sharded-kernel determinism gate. Runs the kernel's
# cross-shard workload matrix, the window and Step orders (each shard's own
# order, shards in index order; Step's global minimum), the lookahead-window
# equivalence and the lane/heap equivalence test (sorted and
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
# observe (windowed, and along the nodes of a shared history tree), decision
# (steady and restarting: TestRestartDecisionZeroAlloc, with a Siren
# row), kernel, fault-query, SGD-epoch, Successive-Halving
# trial (TestSHATrialZeroAlloc: Run into a reused Result), faas (single and group
# admission with release at n = 1, 8, 200, ReclaimWarm, and both entry
# points' denial) and traffic paths; mallocs per arrival on the
# shared-account pipeline and on the open-loop tenant, macro-day and
# macro-chaos with their denials, retries, drops and kills). The kernel's
# TestLaneChurnReusesSlots counts arena slots instead: steady
# cancel-the-oldest churn on a lane must reuse them. The benchmarks (ml
# kernels, dataset generators and Partition, DES kernel, decision path) run
# at a fixed small iteration count: fast enough for CI, enough to catch
# kernels that re-grow allocations. internal/sha's BenchmarkSHARun is one 64-trial MobileNet
# tuning run with -benchmem: the trainer's job lifecycle, whose trials
# allocate nothing. internal/core's BenchmarkFrameworkCell, also with
# -benchmem, is one fig12-shaped MobileNet cell on a fresh Framework: the
# two reference runs, CE-scaling and modified Cirrus, whose later sessions
# read their online fits from the framework's history tree.
# internal/sim's sweep includes BenchmarkRunShards, one
# cross-shard actor load at 1 and 8 shards on one worker: no cmd/bench
# workload runs one worker above one shard, so the per-event cost of the
# shard count shows there. internal/fit benches its one solver (Fitter: cold, warm to
# convergence, the fleet tuning's capped refit of a sliding window, and of
# a window growing from 4 points as a fleet controller's does) and its
# normal-equation pass (kernel and Go loop at 17 and 40 points),
# internal/cost its one grid scan and table lookups, internal/planner
# Algorithm 1 over the Pareto set and over the full grid (fig21a's WO-pa)
# and the exact DP. The planner's gate is a bound, not zero: a greedy run
# allocates its index plans and its result, never per candidate
# (TestPlanMinJCTBoundedAllocs). So is macro-fleet's footprint gate: one
# more controller may cost at most a bound of heap allocations and bytes
# (TestFleetFootprintPerTenant). internal/fit and internal/scheduler run
# with -benchmem, so BenchmarkFitterFleet and BenchmarkDecisionFleet print
# allocations per operation. Measured runs are
# `go run ./cmd/bench [-layers]`; see benchmark/README.md.
bench:
	$(GO) test -run ZeroAlloc ./...
	$(GO) test -run TestLaneChurnReusesSlots ./internal/sim/
	$(GO) test -run TestPlanMinJCTBoundedAllocs ./internal/planner/
	$(GO) test -run TestFleetFootprintPerTenant ./internal/experiments/
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=100x \
		./internal/ml/ ./internal/dataset/ ./internal/sha/ ./internal/core/ \
		./internal/fit/ ./internal/scheduler/
	$(GO) test -run '^$$' -bench . -benchtime=100x \
		./internal/sim/ ./internal/cost/ ./internal/traffic/ ./internal/planner/

# bench-smoke: the measurement harness's own checks on one short execution
# per workload — the golden paper digest, trace-s8w2 == trace-s1, the TOTAL
# sums and the arrival ledgers. It writes to a temporary directory, so
# benchmark/out stays as the last measured run left it.
bench-smoke:
	$(GO) run ./cmd/bench -smoke -out "$$(mktemp -d)"

# reach: the coverage audit of the shipped commands. Builds cebench and
# cescale with coverage over the whole module, runs a fixed
# command list, and fails on a function outside cmd/bench that none of them
# ever executes unless scripts/reach.keep says why it stays (or on a keep line
# that no longer applies). See DESIGN.md "Reach".
reach:
	sh scripts/reach.sh

# identity: byte identity against revision BASE (not part of check): the
# stdout of `cebench -parallel 1 -seed S all` at six seeds, seed 2023's
# -parallel 2 stdout, trace and metrics exports, and `cescale` stdout in
# every mode at two seeds (run mode's -trace, -trace-out and -metrics-out
# files too), and the benchmark's fleet, day-chaos and trace command lines at
# benchmark size and a small trace-file replay, 1x1 and 8x2 shards x
# workers, at two seeds, each cmp'd
# against the binaries built at BASE. A refactor or
# perf change must pass it against its parent:
#   make identity BASE=<rev>
identity:
	@[ -n "$(BASE)" ] || { echo "usage: make identity BASE=<rev>"; exit 2; }
	sh scripts/identity.sh $(BASE)

# rss-ab: peak RSS and wall time against revision BASE (not part of check):
# 10 pairs of `cebench -rusage ARGS`, built at BASE and at the working tree,
# the side that goes first alternating; prints each side's RSS median and
# quartiles, its fastest and median wall time, and the pairs each side won
# on each. ARGS defaults to the benchmark's fleet command line (1,500
# macro-fleet controllers):
#   make rss-ab BASE=<rev> [ARGS='-seed 99 -fleet-tenants 1500 macro-fleet']
rss-ab:
	@[ -n "$(BASE)" ] || { echo "usage: make rss-ab BASE=<rev> [ARGS='<cebench args>']"; exit 2; }
	sh scripts/rss-ab.sh $(BASE) $(ARGS)

# fuzz-smoke: a few seconds of each native fuzz target: the kernel (random
# schedule/batch/cancel/Step/RunUntil programs — schedules on the heap and
# through lanes with sorted and unsorted keys, cancels of a lane's oldest
# entry by handle and by Lane.CancelHead, posts from four sender shards in
# three delay classes — against the container/heap reference, which has one
# queue and no lanes), the Levenberg-Marquardt fitter (sliding fits of
# arbitrary finite series against refFitter, the solver before its kernels
# moved into locals), the epoch solver (SolveForX on arbitrary float64 bits:
# ok=false or a finite x in [1, MaxSolvableX] that round-trips through the
# curve), the trace-file parser (against a strings.Split +
# strconv reference, read whole and one byte at a time), fault schedules
# (arbitrary event lists over all six kinds and unknown ones: New refuses
# them with a fault: error, or every query stays in range, every instant is
# walked once and every compiled event fires, crash windows compiling to
# none), Algorithm 1 (fuzzed SHA shapes, budgets and deadlines, NaN,
# subnormal and infinite ones included: an exact plan is within budget and
# equals the parent-pointer DP refExactMinJCT bit for bit, and a feasible
# greedy plan meets its constraint) and the BSP straggler draw
# (any seed, group size, sigma in (0, 50] and pending spare: Rand.MaxLogNormal equals
# the one-Exp-per-function loop bit for bit, stream included), the polar
# multiplier kernel (arbitrary positive finite s in every lane: AVX2 on an
# amd64 host that has it, equal to math.Sqrt(-2*math.Log(s)/s) bit for bit),
# the fitter's normal-equation pass (a, b, c and 0-67 points from arbitrary
# float64 bits: AVX on an amd64 host that has it, equal to the Go loop bit
# for bit, and its NaN payloads to the x86 rule), the faas
# warm pool (random InvokeGroup/ReleaseGroup/ReclaimWarm/KillSandboxes/
# RunUntil programs over three memory sizes: the batch pool equals the
# per-sandbox refPlatform bit for bit after every step) and the ml row
# kernels (arbitrary float64 bits, NaN, infinities, subnormals and -0
# included, at lengths 0-67: dot8 and axpy4, AVX on an amd64 host that has
# it, equal the Go loops bit for bit, NaN wherever they give NaN). New inputs
# stay in the build cache; a failing one is written to the package's
# testdata/fuzz/ and from then on runs with `go test`. The kernel's seed
# programs are kilobytes long, and the engine's default minute of minimizing
# each input that reaches new code would eat the whole smoke: one second (the
# warm pool's, the row kernels' and the normal-equation pass's too).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzKernelOps -fuzztime 10s -fuzzminimizetime 1s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzFitterFit -fuzztime 5s ./internal/fit/
	$(GO) test -run '^$$' -fuzz FuzzSolveForX -fuzztime 5s ./internal/fit/
	$(GO) test -run '^$$' -fuzz FuzzNormalPass -fuzztime 5s -fuzzminimizetime 1s ./internal/fit/
	$(GO) test -run '^$$' -fuzz FuzzParseTrace -fuzztime 5s ./internal/traffic/
	$(GO) test -run '^$$' -fuzz FuzzFaultSchedule -fuzztime 5s ./internal/fault/
	$(GO) test -run '^$$' -fuzz FuzzPlanner -fuzztime 5s ./internal/planner/
	$(GO) test -run '^$$' -fuzz FuzzMaxLogNormal -fuzztime 5s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzPolarLanes -fuzztime 5s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzWarmPool -fuzztime 5s -fuzzminimizetime 1s ./internal/faas/
	$(GO) test -run '^$$' -fuzz FuzzRowKernels -fuzztime 5s -fuzzminimizetime 1s ./internal/ml/
