// Package ml is a real mini-batch SGD engine for linear models: logistic
// regression, linear SVM (hinge loss) and linear regression (squared loss),
// all with optional L2 regularization. It supplies the genuine stochastic
// convergence behaviour the paper's online-prediction experiments depend on
// (§II-C2): the LR/SVM workloads in this repository actually train on data,
// they are not scripted curves.
//
// The engine is deliberately storage-agnostic: workers compute gradients on
// their shards and the Bulk Synchronous Parallel reduction is plain vector
// addition, so the simulated trainer can route the exchange through any
// storage.Store.
//
// The numeric path is allocation-free in the steady state: workers own
// pre-sized gradient scratch buffers, the trainer aggregates worker
// gradients in place, and the gradient/loss kernels process rows four at a
// time with per-row summation order preserved, so results are bit-identical
// to the naive loops.
package ml

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/sim"
)

// Objective is a differentiable training objective over a linear model.
type Objective interface {
	// Name identifies the objective ("logistic", "hinge", "squared").
	Name() string
	// Gradient adds the average gradient over the rows idx of m, evaluated
	// at weights w, into grad (which the caller has zeroed or is
	// accumulating into deliberately). It runs once per worker per BSP
	// iteration — the innermost loop of every simulated training trial —
	// so every implementation must be allocation-free.
	Gradient(w []float64, m *dataset.Matrix, idx []int, grad []float64)
	// Loss returns the average loss over all rows of m at weights w. It
	// closes every epoch, so implementations share Gradient's obligation.
	Loss(w []float64, m *dataset.Matrix) float64
}

// Logistic is the logistic-regression objective with labels in {-1, +1}:
// loss = log(1 + exp(-y w·x)) + (L2/2)|w|².
type Logistic struct{ L2 float64 }

// Name implements Objective.
func (Logistic) Name() string { return "logistic" }

// Gradient implements Objective.
func (l Logistic) Gradient(w []float64, m *dataset.Matrix, idx []int, grad []float64) {
	inv := 1 / float64(len(idx))
	k := 0
	for ; k+4 <= len(idx); k += 4 {
		i0, i1, i2, i3 := idx[k], idx[k+1], idx[k+2], idx[k+3]
		r0, r1, r2, r3 := m.Row(i0), m.Row(i1), m.Row(i2), m.Row(i3)
		d0, d1, d2, d3 := dot4(w, r0, r1, r2, r3)
		y0, y1, y2, y3 := m.Y[i0], m.Y[i1], m.Y[i2], m.Y[i3]
		// d/dw log(1+exp(-y w·x)) = -y x sigmoid(-y w·x)
		c0 := -y0 * Sigmoid(-y0*d0) * inv
		c1 := -y1 * Sigmoid(-y1*d1) * inv
		c2 := -y2 * Sigmoid(-y2*d2) * inv
		c3 := -y3 * Sigmoid(-y3*d3) * inv
		axpy4(c0, c1, c2, c3, r0, r1, r2, r3, grad)
	}
	for ; k < len(idx); k++ {
		r := idx[k]
		row := m.Row(r)
		y := m.Y[r]
		coeff := -y * Sigmoid(-y*Dot(w, row)) * inv
		Axpy(coeff, row, grad)
	}
	if l.L2 > 0 {
		Axpy(l.L2, w, grad)
	}
}

// Loss implements Objective.
func (l Logistic) Loss(w []float64, m *dataset.Matrix) float64 {
	var sum float64
	r := 0
	for ; r+4 <= m.Rows; r += 4 {
		d0, d1, d2, d3 := dot4(w, m.Row(r), m.Row(r+1), m.Row(r+2), m.Row(r+3))
		sum += Log1pExp(-m.Y[r] * d0)
		sum += Log1pExp(-m.Y[r+1] * d1)
		sum += Log1pExp(-m.Y[r+2] * d2)
		sum += Log1pExp(-m.Y[r+3] * d3)
	}
	for ; r < m.Rows; r++ {
		sum += Log1pExp(-m.Y[r] * Dot(w, m.Row(r)))
	}
	loss := sum / float64(m.Rows)
	if l.L2 > 0 {
		n := Norm2(w)
		loss += l.L2 / 2 * n * n
	}
	return loss
}

// Hinge is the linear-SVM objective: loss = max(0, 1 - y w·x) + (L2/2)|w|².
type Hinge struct{ L2 float64 }

// Name implements Objective.
func (Hinge) Name() string { return "hinge" }

// Gradient implements Objective (subgradient at the hinge point). The dot
// products are batched four rows at a time; the subgradient of each active
// row is applied individually and in row order, keeping skip semantics and
// accumulation order identical to the scalar loop.
func (h Hinge) Gradient(w []float64, m *dataset.Matrix, idx []int, grad []float64) {
	inv := 1 / float64(len(idx))
	k := 0
	for ; k+4 <= len(idx); k += 4 {
		i0, i1, i2, i3 := idx[k], idx[k+1], idx[k+2], idx[k+3]
		r0, r1, r2, r3 := m.Row(i0), m.Row(i1), m.Row(i2), m.Row(i3)
		d0, d1, d2, d3 := dot4(w, r0, r1, r2, r3)
		if y := m.Y[i0]; y*d0 < 1 {
			Axpy(-y*inv, r0, grad)
		}
		if y := m.Y[i1]; y*d1 < 1 {
			Axpy(-y*inv, r1, grad)
		}
		if y := m.Y[i2]; y*d2 < 1 {
			Axpy(-y*inv, r2, grad)
		}
		if y := m.Y[i3]; y*d3 < 1 {
			Axpy(-y*inv, r3, grad)
		}
	}
	for ; k < len(idx); k++ {
		r := idx[k]
		row := m.Row(r)
		y := m.Y[r]
		if y*Dot(w, row) < 1 {
			Axpy(-y*inv, row, grad)
		}
	}
	if h.L2 > 0 {
		Axpy(h.L2, w, grad)
	}
}

// Loss implements Objective.
func (h Hinge) Loss(w []float64, m *dataset.Matrix) float64 {
	var sum float64
	r := 0
	for ; r+4 <= m.Rows; r += 4 {
		d0, d1, d2, d3 := dot4(w, m.Row(r), m.Row(r+1), m.Row(r+2), m.Row(r+3))
		if v := 1 - m.Y[r]*d0; v > 0 {
			sum += v
		}
		if v := 1 - m.Y[r+1]*d1; v > 0 {
			sum += v
		}
		if v := 1 - m.Y[r+2]*d2; v > 0 {
			sum += v
		}
		if v := 1 - m.Y[r+3]*d3; v > 0 {
			sum += v
		}
	}
	for ; r < m.Rows; r++ {
		if v := 1 - m.Y[r]*Dot(w, m.Row(r)); v > 0 {
			sum += v
		}
	}
	loss := sum / float64(m.Rows)
	if h.L2 > 0 {
		n := Norm2(w)
		loss += h.L2 / 2 * n * n
	}
	return loss
}

// Squared is the linear-regression objective: loss = (w·x - y)²/2 + (L2/2)|w|².
type Squared struct{ L2 float64 }

// Name implements Objective.
func (Squared) Name() string { return "squared" }

// Gradient implements Objective.
func (s Squared) Gradient(w []float64, m *dataset.Matrix, idx []int, grad []float64) {
	inv := 1 / float64(len(idx))
	k := 0
	for ; k+4 <= len(idx); k += 4 {
		i0, i1, i2, i3 := idx[k], idx[k+1], idx[k+2], idx[k+3]
		r0, r1, r2, r3 := m.Row(i0), m.Row(i1), m.Row(i2), m.Row(i3)
		d0, d1, d2, d3 := dot4(w, r0, r1, r2, r3)
		c0 := (d0 - m.Y[i0]) * inv
		c1 := (d1 - m.Y[i1]) * inv
		c2 := (d2 - m.Y[i2]) * inv
		c3 := (d3 - m.Y[i3]) * inv
		axpy4(c0, c1, c2, c3, r0, r1, r2, r3, grad)
	}
	for ; k < len(idx); k++ {
		r := idx[k]
		row := m.Row(r)
		coeff := (Dot(w, row) - m.Y[r]) * inv
		Axpy(coeff, row, grad)
	}
	if s.L2 > 0 {
		Axpy(s.L2, w, grad)
	}
}

// Loss implements Objective.
func (s Squared) Loss(w []float64, m *dataset.Matrix) float64 {
	var sum float64
	r := 0
	for ; r+4 <= m.Rows; r += 4 {
		d0, d1, d2, d3 := dot4(w, m.Row(r), m.Row(r+1), m.Row(r+2), m.Row(r+3))
		e0 := d0 - m.Y[r]
		e1 := d1 - m.Y[r+1]
		e2 := d2 - m.Y[r+2]
		e3 := d3 - m.Y[r+3]
		sum += e0 * e0 / 2
		sum += e1 * e1 / 2
		sum += e2 * e2 / 2
		sum += e3 * e3 / 2
	}
	for ; r < m.Rows; r++ {
		d := Dot(w, m.Row(r)) - m.Y[r]
		sum += d * d / 2
	}
	loss := sum / float64(m.Rows)
	if s.L2 > 0 {
		n := Norm2(w)
		loss += s.L2 / 2 * n * n
	}
	return loss
}

// ObjectiveByName returns the named objective with the given L2 strength.
func ObjectiveByName(name string, l2 float64) (Objective, error) {
	switch name {
	case "logistic":
		return Logistic{L2: l2}, nil
	case "hinge":
		return Hinge{L2: l2}, nil
	case "squared":
		return Squared{L2: l2}, nil
	default:
		return nil, fmt.Errorf("ml: unknown objective %q", name)
	}
}

// Worker computes gradients over one data shard with its own batch cursor,
// mirroring one serverless function in the BSP loop.
type Worker struct {
	Shard   *dataset.Matrix
	perm    []int
	pos     int
	rng     *sim.Rand
	scratch []float64 // reused by Gradient between calls
}

// NewWorker returns a worker over shard using rng for batch shuffling.
func NewWorker(shard *dataset.Matrix, rng *sim.Rand) *Worker {
	w := &Worker{Shard: shard, rng: rng}
	w.reshuffle()
	return w
}

// reshuffle refills the worker's permutation in place, consuming the same
// RNG draws and producing the same ordering as rng.Perm (so the shuffle
// stream is unchanged) without reallocating.
func (w *Worker) reshuffle() {
	n := w.Shard.Rows
	if cap(w.perm) < n {
		w.perm = make([]int, n)
	}
	p := w.perm[:n]
	for i := range p {
		j := w.rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	w.perm = p
	w.pos = 0
}

// NextBatch returns the indices of the next mini-batch of up to size rows,
// reshuffling when the shard is exhausted.
func (w *Worker) NextBatch(size int) []int {
	if size <= 0 || size > w.Shard.Rows {
		size = w.Shard.Rows
	}
	if w.pos+size > len(w.perm) {
		w.reshuffle()
	}
	b := w.perm[w.pos : w.pos+size]
	w.pos += size
	return b
}

// GradientInto computes the worker's average gradient at weights wvec over
// its next mini-batch of size batch, writing it into the caller-owned grad
// (len(grad) must equal len(wvec); it is zeroed first).
func (w *Worker) GradientInto(obj Objective, wvec []float64, batch int, grad []float64) {
	Zero(grad)
	obj.Gradient(wvec, w.Shard, w.NextBatch(batch), grad)
}

// Gradient computes the worker's average gradient at weights wvec over its
// next mini-batch of size batch. The returned slice is the worker's own
// scratch buffer: it is valid until the next Gradient call on this worker,
// which keeps the steady-state loop allocation-free. Callers that need the
// value to outlive the next call must copy it (or use GradientInto).
func (w *Worker) Gradient(obj Objective, wvec []float64, batch int) []float64 {
	if cap(w.scratch) < len(wvec) {
		w.scratch = make([]float64, len(wvec))
	}
	g := w.scratch[:len(wvec)]
	w.GradientInto(obj, wvec, batch, g)
	return g
}

// Config parameterizes a BSP training run.
type Config struct {
	Objective    Objective
	Workers      int
	BatchPerWkr  int // mini-batch rows per worker per iteration
	LearningRate float64
	Seed         uint64
}

// Trainer runs synchronous (BSP) mini-batch SGD across in-memory workers.
// The simulated serverless trainer wraps this with timing, billing and
// storage routing; Trainer itself is pure math and is also usable directly.
type Trainer struct {
	cfg     Config
	data    *dataset.Matrix
	workers []*Worker
	weights []float64
	epoch   int

	// Pre-sized scratch for the BSP loop: one backing array holding every
	// worker's gradient plus the aggregation vector, so the steady-state
	// epoch path allocates nothing.
	grads [][]float64
	sum   []float64
}

// NewTrainer partitions data across cfg.Workers workers and zero-initializes
// the model. Sharding goes through the dataset shard cache, so concurrent
// trials over the same matrix share one read-only partitioning.
func NewTrainer(data *dataset.Matrix, cfg Config) (*Trainer, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("ml: need at least one worker, got %d", cfg.Workers)
	}
	if cfg.Objective == nil {
		return nil, fmt.Errorf("ml: nil objective")
	}
	if cfg.LearningRate <= 0 {
		return nil, fmt.Errorf("ml: non-positive learning rate %g", cfg.LearningRate)
	}
	if data.Rows < cfg.Workers {
		return nil, fmt.Errorf("ml: %d rows cannot feed %d workers", data.Rows, cfg.Workers)
	}
	t := &Trainer{cfg: cfg, data: data, weights: make([]float64, data.Cols)}
	shards := data.Shards(cfg.Workers)
	seedRng := sim.NewRand(cfg.Seed)
	for i, sh := range shards {
		t.workers = append(t.workers, NewWorker(sh, sim.NewRand(seedRng.Uint64()+uint64(i))))
	}
	buf := make([]float64, (len(t.workers)+1)*data.Cols)
	t.grads = make([][]float64, len(t.workers))
	for i := range t.grads {
		t.grads[i] = buf[i*data.Cols : (i+1)*data.Cols]
	}
	t.sum = buf[len(t.workers)*data.Cols:]
	return t, nil
}

// Weights returns the live weight vector (callers must not mutate it).
func (t *Trainer) Weights() []float64 { return t.weights }

// SetWeights replaces the model (used when resuming after a resource
// adjustment restart).
func (t *Trainer) SetWeights(w []float64) { t.weights = Clone(w) }

// Epoch reports how many epochs have completed.
func (t *Trainer) Epoch() int { return t.epoch }

// IterationsPerEpoch returns how many BSP iterations one epoch takes: each
// worker consumes its shard once per epoch, batch rows at a time.
func (t *Trainer) IterationsPerEpoch() int {
	minRows := t.workers[0].Shard.Rows
	for _, w := range t.workers[1:] {
		if w.Shard.Rows < minRows {
			minRows = w.Shard.Rows
		}
	}
	b := t.cfg.BatchPerWkr
	if b <= 0 || b > minRows {
		b = minRows
	}
	k := minRows / b
	if k < 1 {
		k = 1
	}
	return k
}

// WorkerGradients computes each worker's mini-batch gradient at the current
// weights. The returned slices are the trainer's pre-sized scratch buffers:
// they are valid until the next WorkerGradients or RunIteration call.
func (t *Trainer) WorkerGradients() [][]float64 {
	for i, w := range t.workers {
		w.GradientInto(t.cfg.Objective, t.weights, t.cfg.BatchPerWkr, t.grads[i])
	}
	return t.grads
}

// ApplyAggregate applies the sum of worker gradients (dividing by the number
// of workers to average) with one SGD step.
func (t *Trainer) ApplyAggregate(sum []float64) {
	Axpy(-t.cfg.LearningRate/float64(len(t.workers)), sum, t.weights)
}

// RunIteration performs one full BSP iteration in-memory (gradients +
// aggregate + step) and is the building block RunEpoch uses. The
// aggregation reuses the trainer's scratch vector and folds worker
// gradients in index order, so it allocates nothing and matches the
// sequential reduction bit for bit.
func (t *Trainer) RunIteration() {
	grads := t.WorkerGradients()
	Zero(t.sum)
	for _, g := range grads {
		Add(g, t.sum)
	}
	t.ApplyAggregate(t.sum)
}

// RunEpoch performs one epoch of BSP iterations and returns the full-data
// training loss at the end of the epoch. This is the engine's steady-state
// entry point — one call per simulated epoch across every trial — and the
// whole iteration chain beneath it (WorkerGradients, GradientInto, batch
// cursoring, aggregation, the epoch-end Loss) is allocation-free
// (TestRunEpochZeroAlloc).
func (t *Trainer) RunEpoch() float64 {
	k := t.IterationsPerEpoch()
	for i := 0; i < k; i++ {
		t.RunIteration()
	}
	t.epoch++
	return t.Loss()
}

// SkipEpochs advances the epoch counter and every worker's batch cursor by
// n epochs of draws without computing a gradient: the shuffle streams end
// where n RunEpoch calls would have left them and the weights are untouched.
func (t *Trainer) SkipEpochs(n int) {
	for k := n * t.IterationsPerEpoch(); k > 0; k-- {
		for _, w := range t.workers {
			w.NextBatch(t.cfg.BatchPerWkr)
		}
	}
	t.epoch += n
}

// Loss returns the average loss over the entire dataset at the current
// weights.
func (t *Trainer) Loss() float64 {
	return t.cfg.Objective.Loss(t.weights, t.data)
}

// Accuracy returns classification accuracy (sign agreement) over the whole
// dataset; it is meaningful only for ±1-labelled data.
func (t *Trainer) Accuracy() float64 {
	correct := 0
	for r := 0; r < t.data.Rows; r++ {
		pred := 1.0
		if Dot(t.weights, t.data.Row(r)) < 0 {
			pred = -1
		}
		if pred == t.data.Y[r] {
			correct++
		}
	}
	return float64(correct) / float64(t.data.Rows)
}

// TrainToLoss runs epochs until the loss reaches target or maxEpochs is hit,
// returning the per-epoch loss trace.
func (t *Trainer) TrainToLoss(target float64, maxEpochs int) []float64 {
	var trace []float64
	for e := 0; e < maxEpochs; e++ {
		loss := t.RunEpoch()
		trace = append(trace, loss)
		if loss <= target || math.IsNaN(loss) {
			break
		}
	}
	return trace
}
