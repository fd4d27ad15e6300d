package ml

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/sim"
)

func benchData(rows int) *dataset.Matrix {
	return dataset.GenerateBinary(sim.NewRand(1), dataset.GenConfig{Samples: rows, Features: 32, NoiseFlip: 0.1})
}

// kernelData is the representative real-engine shape: capped 256 features,
// as used by the SHA trials and the experiment matrix.
func kernelData(rows, cols int) *dataset.Matrix {
	return dataset.GenerateBinary(sim.NewRand(1), dataset.GenConfig{Samples: rows, Features: cols, NoiseFlip: 0.1})
}

func benchGradient(b *testing.B, obj Objective) {
	data := kernelData(2000, 256)
	w := make([]float64, data.Cols)
	rng := sim.NewRand(7)
	for i := range w {
		w[i] = rng.NormFloat64() * 0.1
	}
	idx := make([]int, 256)
	for i := range idx {
		idx[i] = (i * 7) % data.Rows
	}
	grad := make([]float64, data.Cols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Zero(grad)
		gradient(obj, w, data, idx, grad, nil)
	}
}

func BenchmarkGradientLogistic(b *testing.B) { benchGradient(b, Logistic{L2: 1e-4}) }
func BenchmarkGradientHinge(b *testing.B)    { benchGradient(b, Hinge{L2: 1e-4}) }
func BenchmarkGradientSquared(b *testing.B)  { benchGradient(b, Squared{L2: 1e-4}) }

// BenchmarkWorkerGradient measures one worker's full mini-batch gradient
// (batch draw + kernel) at the SHA-trial shape; the steady state must not
// allocate.
func BenchmarkWorkerGradient(b *testing.B) {
	shard := kernelData(1500, 256)
	w := NewWorker(shard, sim.NewRand(3))
	model := make([]float64, shard.Cols)
	obj := Logistic{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Gradient(obj, model, 37)
	}
}

// BenchmarkRunEpoch measures the whole BSP epoch path (gradients, in-place
// aggregation, SGD step, full-data loss) at the SHA-trial shape.
func BenchmarkRunEpoch(b *testing.B) {
	tr, err := NewTrainer(kernelData(1500, 256), Config{
		Objective: Logistic{L2: 1e-4}, Workers: 8, BatchPerWkr: 37, LearningRate: 0.1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RunEpoch()
	}
}

// yfccTrainer is one BSP trainer at the LR-YFCC trajectory shape: the
// default real-engine sample (4000 rows) at the 256-feature cap, squared
// loss, 8 workers at 100 rows each (workload.NewRealEngine's rows/8/5), the
// learning rate LR-YFCC's 0.01 scaled by 0.2. Its trajectory is most of
// fig15's work.
func yfccTrainer(b *testing.B) *Trainer {
	data := dataset.GenerateRegression(sim.NewRand(1), dataset.GenConfig{Samples: 4000, Features: 256, NoiseStd: 8})
	tr, err := NewTrainer(data, Config{
		Objective: Squared{L2: 1e-4}, Workers: 8, BatchPerWkr: 100, LearningRate: 0.002, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkRunEpochYFCC measures one RunEpoch at the LR-YFCC shape: the
// gradient passes, then Loss's second pass over the matrix.
func BenchmarkRunEpochYFCC(b *testing.B) {
	tr := yfccTrainer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RunEpoch()
	}
}

// BenchmarkRunEpochLaggedYFCC is BenchmarkRunEpochYFCC's twin for the lagged
// epoch the shared trajectory runs: one pass over the matrix, the loss at
// the start weights computed inside it.
func BenchmarkRunEpochLaggedYFCC(b *testing.B) {
	tr := yfccTrainer(b)
	tr.RunEpochLagged()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RunEpochLagged()
	}
}

func BenchmarkLoss(b *testing.B) {
	data := kernelData(2000, 256)
	w := make([]float64, data.Cols)
	obj := Logistic{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss(obj, w, data)
	}
}

func BenchmarkLogisticLoss(b *testing.B) {
	data := benchData(4000)
	w := make([]float64, data.Cols)
	obj := Logistic{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss(obj, w, data)
	}
}

func BenchmarkBSPEpoch(b *testing.B) {
	tr, err := NewTrainer(benchData(4000), Config{
		Objective: Logistic{}, Workers: 8, BatchPerWkr: 64, LearningRate: 0.3, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RunEpoch()
	}
}
