package ml

import (
	"testing"

	"repro/internal/sim"
)

// TestNextBatchLargerThanShard: a batch size exceeding the shard clamps to
// the full shard, every call returns all rows, and the cursor never runs
// past the permutation.
func TestNextBatchLargerThanShard(t *testing.T) {
	shard := binData(25, 3, 0, 1)
	w := NewWorker(shard, sim.NewRand(1))
	for call := 0; call < 5; call++ {
		b := w.NextBatch(100)
		if len(b) != 25 {
			t.Fatalf("call %d: batch of %d rows, want full shard (25)", call, len(b))
		}
		seen := make(map[int]bool, len(b))
		for _, idx := range b {
			if idx < 0 || idx >= 25 {
				t.Fatalf("call %d: index %d out of shard range", call, idx)
			}
			seen[idx] = true
		}
		if len(seen) != 25 {
			t.Fatalf("call %d: %d distinct rows, want 25", call, len(seen))
		}
	}
}

// TestNextBatchExactlyConsumesShard: batches that tile the shard exactly
// trigger a reshuffle on the next call, and each pass covers every row
// exactly once.
func TestNextBatchExactlyConsumesShard(t *testing.T) {
	const rows, batch = 60, 20
	shard := binData(rows, 2, 0, 2)
	w := NewWorker(shard, sim.NewRand(9))
	for pass := 0; pass < 4; pass++ {
		counts := make([]int, rows)
		for i := 0; i < rows/batch; i++ {
			b := w.NextBatch(batch)
			if len(b) != batch {
				t.Fatalf("pass %d: batch len %d, want %d", pass, len(b), batch)
			}
			for _, idx := range b {
				counts[idx]++
			}
		}
		for idx, c := range counts {
			if c != 1 {
				t.Fatalf("pass %d: row %d drawn %d times, want exactly once", pass, idx, c)
			}
		}
	}
}

// TestShuffleStreamDeterministicAcrossReshuffles locks the shuffle stream:
// the in-place reshuffle must consume the RNG exactly like rng.Perm did, so
// a worker's batch sequence over many reshuffles equals the reference
// sequence built from Perm on an identical RNG stream.
func TestShuffleStreamDeterministicAcrossReshuffles(t *testing.T) {
	const rows, batch, passes = 30, 10, 5
	shard := binData(rows, 2, 0, 3)
	const seed = 77
	w := NewWorker(shard, sim.NewRand(seed))

	ref := sim.NewRand(seed)
	var want []int
	for p := 0; p < passes; p++ {
		want = append(want, ref.Perm(rows)...)
	}
	var got []int
	for len(got) < len(want) {
		got = append(got, w.NextBatch(batch)...)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shuffle stream diverges from rng.Perm reference at draw %d: got %d, want %d", i, got[i], want[i])
		}
	}

	// And two workers with identical seeds stay in lockstep.
	w1 := NewWorker(shard, sim.NewRand(5))
	w2 := NewWorker(shard, sim.NewRand(5))
	for call := 0; call < 4*rows/batch; call++ {
		b1, b2 := w1.NextBatch(batch), w2.NextBatch(batch)
		for i := range b1 {
			if b1[i] != b2[i] {
				t.Fatalf("call %d: same-seed workers diverged", call)
			}
		}
	}
}

// TestGradientMatchesGradientInto: the scratch-returning Gradient and the
// caller-owned-buffer GradientInto produce identical vectors when driven by
// identical batch streams.
func TestGradientMatchesGradientInto(t *testing.T) {
	shard := binData(120, 8, 0.1, 11)
	obj := Logistic{L2: 1e-3}
	wvec := make([]float64, shard.Cols)
	rng := sim.NewRand(4)
	for i := range wvec {
		wvec[i] = rng.NormFloat64()
	}
	w1 := NewWorker(shard, sim.NewRand(21))
	w2 := NewWorker(shard, sim.NewRand(21))
	dst := make([]float64, shard.Cols)
	for iter := 0; iter < 6; iter++ {
		g := w1.Gradient(obj, wvec, 30)
		w2.GradientInto(obj, wvec, 30, dst)
		for i := range g {
			if g[i] != dst[i] {
				t.Fatalf("iter %d: Gradient and GradientInto differ at dim %d: %g vs %g", iter, i, g[i], dst[i])
			}
		}
	}
}

// TestGradientScratchReused documents the zero-alloc contract: Gradient
// returns the worker's scratch buffer, so the next call overwrites it.
func TestGradientScratchReused(t *testing.T) {
	shard := binData(100, 4, 0.1, 13)
	w := NewWorker(shard, sim.NewRand(1))
	wvec := make([]float64, shard.Cols)
	g1 := w.Gradient(Logistic{}, wvec, 25)
	g2 := w.Gradient(Logistic{}, wvec, 25)
	if &g1[0] != &g2[0] {
		t.Error("Gradient should reuse the worker scratch buffer between calls")
	}
}

// TestRunEpochMatchesNaiveReference cross-checks the fused, zero-alloc
// epoch path against a naive re-implementation (fresh allocations, scalar
// reduction) driven by identically seeded workers: the loss traces must be
// bit-identical.
func TestRunEpochMatchesNaiveReference(t *testing.T) {
	data := binData(600, 16, 0.15, 17)
	cfg := Config{Objective: Logistic{L2: 1e-4}, Workers: 4, BatchPerWkr: 30, LearningRate: 0.2, Seed: 41}
	tr, err := NewTrainer(data, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Naive reference: same shard/RNG construction as NewTrainer, scalar
	// gradient accumulation row by row via the Objective interface, fresh
	// slices everywhere.
	shards := data.Partition(cfg.Workers)
	seedRng := sim.NewRand(cfg.Seed)
	workers := make([]*Worker, cfg.Workers)
	for i := range workers {
		workers[i] = NewWorker(shards[i], sim.NewRand(seedRng.Uint64()+uint64(i)))
	}
	weights := make([]float64, data.Cols)
	refEpoch := func() float64 {
		k := shards[0].Rows
		for _, s := range shards {
			if s.Rows < k {
				k = s.Rows
			}
		}
		k /= cfg.BatchPerWkr
		for it := 0; it < k; it++ {
			sum := make([]float64, data.Cols)
			for _, w := range workers {
				g := make([]float64, data.Cols)
				w.GradientInto(cfg.Objective, weights, cfg.BatchPerWkr, g)
				Add(g, sum)
			}
			Axpy(-cfg.LearningRate/float64(cfg.Workers), sum, weights)
		}
		return cfg.Objective.Loss(weights, data)
	}

	for e := 0; e < 5; e++ {
		got := tr.RunEpoch()
		want := refEpoch()
		if got != want {
			t.Fatalf("epoch %d: fused path loss %v, reference %v", e, got, want)
		}
	}
}

// TestRunEpochZeroAlloc: a steady-state epoch — batch draws and reshuffles,
// every worker's Gradient, aggregation, the SGD step and the epoch-end Loss —
// does not touch the heap under any Objective. (BenchmarkRunEpoch reports the
// same figure; this makes it a failure.)
func TestRunEpochZeroAlloc(t *testing.T) {
	data := binData(600, 16, 0.15, 17)
	for _, obj := range []Objective{Logistic{L2: 1e-4}, Hinge{L2: 1e-4}, Squared{L2: 1e-4}} {
		tr, err := NewTrainer(data, Config{Objective: obj, Workers: 4, BatchPerWkr: 37, LearningRate: 0.05, Seed: 41})
		if err != nil {
			t.Fatal(err)
		}
		tr.RunEpoch() // the first epoch sizes the gradient and aggregate buffers
		if n := testing.AllocsPerRun(20, func() { tr.RunEpoch() }); n != 0 {
			t.Errorf("%s: RunEpoch allocates %.1f times per epoch, want 0", obj.Name(), n)
		}
	}
}
