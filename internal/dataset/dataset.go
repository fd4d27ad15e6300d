// Package dataset describes the evaluation datasets and generates synthetic
// stand-ins for them.
//
// Two concerns are deliberately separated:
//
//   - Spec carries the *nominal* properties the performance and cost models
//     consume (total size in MB, sample count, dimensionality) — these match
//     the real Higgs / YFCC100M / Cifar10 / IMDb datasets the paper uses;
//   - the generators produce *real numeric data* at a tractable scale for
//     the SGD engine, so training convergence is genuinely stochastic. The
//     trainer uses generated data for the numerics and the Spec for timing
//     and billing (documented as a substitution in DESIGN.md).
package dataset

import (
	"fmt"
	"sync"

	"repro/internal/sim"
)

// Task distinguishes what kind of supervised problem a dataset poses.
type Task int

const (
	// BinaryClassification labels are ±1.
	BinaryClassification Task = iota
	// Regression labels are real-valued.
	Regression
	// MultiClass labels are 0..Classes-1 (used by image/NLP profiles whose
	// training is curve-driven rather than numeric).
	MultiClass
)

func (t Task) String() string {
	switch t {
	case BinaryClassification:
		return "binary"
	case Regression:
		return "regression"
	case MultiClass:
		return "multiclass"
	default:
		return fmt.Sprintf("Task(%d)", int(t))
	}
}

// Spec describes a dataset's nominal properties for the analytical models.
type Spec struct {
	Name     string
	Task     Task
	Samples  int     // number of training instances
	Features int     // dimensionality per instance
	Classes  int     // label arity for MultiClass
	SizeMB   float64 // total on-storage size (the D of Eq. 2)
}

// Higgs returns the HIGGS profile: 11M Monte-Carlo instances, 28 features,
// binary classification (~2.5 GB as dense float64).
func Higgs() Spec {
	return Spec{Name: "Higgs", Task: BinaryClassification, Samples: 11_000_000, Features: 28, SizeMB: 2464}
}

// YFCC returns the YFCC100M-subset profile: image feature vectors of 4096
// dimensions; the paper trains LR/SVM to a squared-loss target, so the task
// is regression. We use a 200k-instance subset (~6.5 GB).
func YFCC() Spec {
	return Spec{Name: "YFCC", Task: Regression, Samples: 200_000, Features: 4096, SizeMB: 6554}
}

// Cifar10 returns the CIFAR-10 profile: 60k 32x32x3 images, 10 classes.
func Cifar10() Spec {
	return Spec{Name: "Cifar10", Task: MultiClass, Samples: 60_000, Features: 3072, Classes: 10, SizeMB: 185}
}

// IMDb returns the IMDb review profile: 25k sentences, average length 292
// tokens.
func IMDb() Spec {
	return Spec{Name: "IMDb", Task: MultiClass, Samples: 25_000, Features: 292, Classes: 2, SizeMB: 30}
}

// PartitionSizeMB returns the per-function data share when the dataset is
// split evenly across n functions.
func (s Spec) PartitionSizeMB(n int) float64 {
	if n < 1 {
		n = 1
	}
	return s.SizeMB / float64(n)
}

// Matrix is a dense row-major design matrix with labels: real numbers the
// SGD engine trains on. A Matrix is effectively immutable once generated —
// trainers only read X and Y — which is what makes shard sharing across
// concurrent trials safe.
type Matrix struct {
	Rows, Cols int
	X          []float64 // len Rows*Cols, row-major
	Y          []float64 // len Rows; ±1 for classification, real for regression

	mu     sync.Mutex
	shards map[int][]*Matrix // memoized Partition results, keyed by shard count
}

// Row returns the i-th feature vector (a view, not a copy).
func (m *Matrix) Row(i int) []float64 {
	return m.X[i*m.Cols : (i+1)*m.Cols]
}

// Partition splits the matrix into n contiguous shards of near-equal size
// (the first Rows%n shards get one extra row). Shards share the underlying
// arrays.
func (m *Matrix) Partition(n int) []*Matrix {
	if n < 1 {
		n = 1
	}
	if n > m.Rows {
		n = m.Rows
	}
	out := make([]*Matrix, n)
	base, extra := m.Rows/n, m.Rows%n
	start := 0
	for i := range out {
		rows := base
		if i < extra {
			rows++
		}
		out[i] = &Matrix{
			Rows: rows, Cols: m.Cols,
			X: m.X[start*m.Cols : (start+rows)*m.Cols],
			Y: m.Y[start : start+rows],
		}
		start += rows
	}
	return out
}

// Shards returns Partition(n) memoized on the matrix: the first call for a
// given n computes the shard views, every later call (from any goroutine)
// returns the same read-only shard set. Successive-Halving runs many trials
// over one matrix, so sharding is paid once per (matrix, n) instead of once
// per trial. Shards never copies data — the returned matrices are views —
// and the memo lives on the matrix itself, so it is reclaimed with it.
func (m *Matrix) Shards(n int) []*Matrix {
	if n < 1 {
		n = 1
	}
	if n > m.Rows {
		n = m.Rows
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.shards[n]; ok {
		return s
	}
	if m.shards == nil {
		m.shards = make(map[int][]*Matrix, 2)
	}
	s := m.Partition(n)
	m.shards[n] = s
	return s
}

// GenConfig controls synthetic data generation.
type GenConfig struct {
	Samples  int
	Features int
	// NoiseFlip is the label-flip probability for classification: it sets
	// the Bayes error and hence the achievable loss floor (Higgs-like data
	// bottoms out near logloss 0.63).
	NoiseFlip float64
	// NoiseStd is additive label noise for regression.
	NoiseStd float64
	// Scale multiplies the ground-truth weights (signal strength).
	Scale float64
}

// GenerateBinary produces a synthetic binary classification dataset: x ~
// N(0, I), y = sign(w·x), with labels flipped with probability NoiseFlip.
// The generator is deterministic for a given RNG stream.
func GenerateBinary(rng *sim.Rand, cfg GenConfig) *Matrix {
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	w := make([]float64, cfg.Features)
	for i := range w {
		w[i] = rng.NormFloat64() * cfg.Scale
	}
	m := &Matrix{Rows: cfg.Samples, Cols: cfg.Features,
		X: make([]float64, cfg.Samples*cfg.Features),
		Y: make([]float64, cfg.Samples)}
	for r := 0; r < cfg.Samples; r++ {
		dot := 0.0
		row := m.X[r*cfg.Features : (r+1)*cfg.Features]
		for c := range row {
			v := rng.NormFloat64()
			row[c] = v
			dot += v * w[c]
		}
		y := 1.0
		if dot < 0 {
			y = -1
		}
		m.Y[r] = y
	}
	// Flips are drawn in a second pass so the feature stream is identical
	// for any NoiseFlip setting (useful for controlled experiments).
	if cfg.NoiseFlip > 0 {
		for r := range m.Y {
			if rng.Float64() < cfg.NoiseFlip {
				m.Y[r] = -m.Y[r]
			}
		}
	}
	return m
}

// GenerateRegression produces a synthetic regression dataset: x ~ N(0, I),
// y = w·x + N(0, NoiseStd).
func GenerateRegression(rng *sim.Rand, cfg GenConfig) *Matrix {
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	w := make([]float64, cfg.Features)
	for i := range w {
		w[i] = rng.NormFloat64() * cfg.Scale
	}
	m := &Matrix{Rows: cfg.Samples, Cols: cfg.Features,
		X: make([]float64, cfg.Samples*cfg.Features),
		Y: make([]float64, cfg.Samples)}
	for r := 0; r < cfg.Samples; r++ {
		dot := 0.0
		row := m.X[r*cfg.Features : (r+1)*cfg.Features]
		for c := range row {
			v := rng.NormFloat64()
			row[c] = v
			dot += v * w[c]
		}
		m.Y[r] = dot + rng.NormFloat64()*cfg.NoiseStd
	}
	return m
}
