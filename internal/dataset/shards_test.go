package dataset_test

// Aliasing safety: trainers partition a matrix into views, not copies, so
// training must never mutate the data it reads. The test lives in an
// external package so it can drive the real SGD engine without an import
// cycle.

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/sim"
)

// TestSharedShardsAliasingSafe trains two trials over the same matrix and
// verifies that mutating trial state (weights) never mutates the shared data.
func TestSharedShardsAliasingSafe(t *testing.T) {
	m := dataset.GenerateBinary(sim.NewRand(3), dataset.GenConfig{Samples: 400, Features: 6, NoiseFlip: 0.1})
	xSum, ySum := checksum(m.X), checksum(m.Y)

	mkTrainer := func(seed uint64) *ml.Trainer {
		tr, err := ml.NewTrainer(m, ml.Config{
			Objective: ml.Logistic{L2: 1e-4}, Workers: 4, BatchPerWkr: 20,
			LearningRate: 0.5, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	t1, t2 := mkTrainer(1), mkTrainer(2)
	for e := 0; e < 3; e++ {
		t1.RunEpoch()
		t2.RunEpoch()
	}
	if checksum(m.X) != xSum || checksum(m.Y) != ySum {
		t.Fatal("training over shared shards mutated the dataset")
	}
}

func checksum(xs []float64) float64 {
	var s float64
	for i, x := range xs {
		s += x * float64(i+1)
	}
	return s
}
