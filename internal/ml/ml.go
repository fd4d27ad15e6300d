// Package ml is a real mini-batch SGD engine for linear models: logistic
// regression, linear SVM (hinge loss) and linear regression (squared loss),
// all with optional L2 regularization. It supplies the genuine stochastic
// convergence behaviour the paper's online-prediction experiments depend on
// (§II-C2): the LR/SVM workloads in this repository actually train on data,
// they are not scripted curves.
//
// The engine is deliberately storage-agnostic: workers compute gradients on
// their shards and the Bulk Synchronous Parallel reduction is plain vector
// addition; the simulated trainer times and prices the exchange through
// internal/storage's service models.
//
// The numeric path is allocation-free in the steady state: the trainer
// computes each worker's gradient into one pre-sized scratch vector and
// aggregates it in place, and the gradient/loss kernels process rows in blocks
// of eight (one dot8 call, then axpy4 accumulation in row order) with every
// row's summation order preserved, so results are bit-identical to the
// naive loops. Each objective defines only its per-row gradient coefficient
// and loss term; one gradient body and one loss body serve all three.
//
// An epoch has two entry points with one body. RunEpoch returns the loss
// after the epoch, a second pass over the data. RunEpochLagged returns the
// loss at the weights the epoch started from, computed inside the epoch's
// own gradient passes: the third row kernel, dot8x2, dots each gathered row
// with the current and the start weights at once, so the rows are read
// once. A caller that reads the loss after every epoch (the shared
// trajectories of internal/workload) runs one epoch ahead.
//
// On amd64 with AVX the three row kernels run in assembly (vec_amd64.s),
// lane by lane the same IEEE multiply and add as the scalar code; elsewhere
// they are the Go loops in vec.go.
package ml

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/sim"
)

// Objective is a differentiable training objective over a linear model.
// The three objectives of this package are its only implementations: each
// supplies its per-row gradient coefficient and loss term, and one gradient
// body (gradient) and one loss body (loss) serve all three.
type Objective interface {
	// Name identifies the objective ("logistic", "hinge", "squared").
	Name() string
	rowTerms
}

// rowTerms is what an objective adds to the shared bodies, for a row with
// dot product d against the weights and label y.
type rowTerms interface {
	// coef returns the row's gradient coefficient before the 1/batch
	// average, or false if the row adds nothing (an inactive hinge row).
	coef(d, y float64) (float64, bool)
	// term returns the row's loss.
	term(d, y float64) float64
	// l2 returns the L2 strength.
	l2() float64
}

// rowBlock is the unit the shared bodies work in: up to eight rows of a
// matrix, their dot products with the weights from one dot8 call, and the
// gradient coefficients of the rows the objective keeps.
type rowBlock struct {
	n    int
	rows [8][]float64
	dot  [8]float64
	coef [8]float64
}

// gather points b at the rows idx (at most eight) of m and computes their
// dot products with w. Unused slots repeat the last row, as dot8 requires.
// With a lag sink it also records each row's dot product with the sink's
// start weights: the same values when the iterate still is them, else the
// second output of one dot8x2 pass over the rows.
func (b *rowBlock) gather(w []float64, m *dataset.Matrix, idx []int, lag *lagSink) {
	b.n = len(idx)
	for j := range b.rows {
		b.rows[j] = m.Row(idx[min(j, b.n-1)])
	}
	switch {
	case lag == nil:
		dot8(w, &b.rows, b.n, &b.dot)
	case lag.first:
		dot8(w, &b.rows, b.n, &b.dot)
		lag.record(idx, &b.dot)
	default:
		var e [8]float64
		dot8x2(w, lag.v, &b.rows, b.n, &b.dot, &e)
		lag.record(idx, &e)
	}
}

// span is gather over the rows r, r+1, ... of m, at most eight of them.
func (b *rowBlock) span(w []float64, m *dataset.Matrix, r int) {
	b.n = min(8, m.Rows-r)
	for j := range b.rows {
		b.rows[j] = m.Row(r + min(j, b.n-1))
	}
	dot8(w, &b.rows, b.n, &b.dot)
}

// addTo adds coef[j]*rows[j] into grad for j < k in row order: per element
// the same sums, in the same order, as k Axpy calls.
func (b *rowBlock) addTo(k int, grad []float64) {
	j := 0
	for ; j+4 <= k; j += 4 {
		axpy4(b.coef[j], b.coef[j+1], b.coef[j+2], b.coef[j+3], b.rows[j], b.rows[j+1], b.rows[j+2], b.rows[j+3], grad)
	}
	for ; j < k; j++ {
		Axpy(b.coef[j], b.rows[j], grad)
	}
}

// gradient adds o's average gradient over the rows idx of m, evaluated at
// weights w, into grad (which the caller has zeroed or is accumulating into
// deliberately); a non-nil lag records as gather does. It runs once per
// worker per BSP iteration — the innermost loop of every simulated training
// trial — and allocates nothing. The rows o keeps stay in row order, so the
// accumulation is the scalar loop's: one Axpy per kept row.
func gradient[O rowTerms](o O, w []float64, m *dataset.Matrix, idx []int, grad []float64, lag *lagSink) {
	inv := 1 / float64(len(idx))
	var b rowBlock
	for k := 0; k < len(idx); k += 8 {
		blk := idx[k:min(k+8, len(idx))]
		b.gather(w, m, blk, lag)
		kept := 0
		for j, i := range blk {
			if c, ok := o.coef(b.dot[j], m.Y[i]); ok {
				b.rows[kept], b.coef[kept] = b.rows[j], c*inv
				kept++
			}
		}
		b.addTo(kept, grad)
	}
	if l2 := o.l2(); l2 > 0 {
		Axpy(l2, w, grad)
	}
}

// loss returns o's average loss over all rows of m at weights w: the rows'
// terms summed in row order, then the L2 penalty. It closes every RunEpoch
// and allocates nothing.
func loss[O rowTerms](o O, w []float64, m *dataset.Matrix) float64 {
	var sum float64
	var b rowBlock
	for r := 0; r < m.Rows; r += 8 {
		b.span(w, m, r)
		for j, y := range m.Y[r : r+b.n] {
			sum += o.term(b.dot[j], y)
		}
	}
	return regularized(sum, m, o.l2(), w)
}

// regularized turns a loss sum over m's rows into the average loss plus the
// L2 penalty (l2/2)|w|².
func regularized(sum float64, m *dataset.Matrix, l2 float64, w []float64) float64 {
	loss := sum / float64(m.Rows)
	if l2 > 0 {
		n := Norm2(w)
		loss += l2 / 2 * n * n
	}
	return loss
}

// Logistic is the logistic-regression objective with labels in {-1, +1}:
// loss = log(1 + exp(-y w·x)) + (L2/2)|w|².
type Logistic struct{ L2 float64 }

// Name implements Objective.
func (Logistic) Name() string { return "logistic" }

// d/dw log(1+exp(-y w·x)) = -y x sigmoid(-y w·x)
func (Logistic) coef(d, y float64) (float64, bool) { return -y * Sigmoid(-y*d), true }
func (Logistic) term(d, y float64) float64         { return Log1pExp(-y * d) }
func (l Logistic) l2() float64                     { return l.L2 }

// Hinge is the linear-SVM objective: loss = max(0, 1 - y w·x) + (L2/2)|w|².
// Its gradient is the subgradient at the hinge point: only the active rows
// (y w·x < 1) contribute.
type Hinge struct{ L2 float64 }

// Name implements Objective.
func (Hinge) Name() string { return "hinge" }

func (Hinge) coef(d, y float64) (float64, bool) { return -y, y*d < 1 }

// term returns 0 for an inactive row: a loss sum starts at +0 and only grows,
// so adding +0 leaves it as skipping the row did.
func (Hinge) term(d, y float64) float64 {
	if v := 1 - y*d; v > 0 {
		return v
	}
	return 0
}
func (h Hinge) l2() float64 { return h.L2 }

// Squared is the linear-regression objective: loss = (w·x - y)²/2 + (L2/2)|w|².
type Squared struct{ L2 float64 }

// Name implements Objective.
func (Squared) Name() string { return "squared" }

func (Squared) coef(d, y float64) (float64, bool) { return d - y, true }
func (Squared) term(d, y float64) float64 {
	e := d - y
	return e * e / 2
}
func (s Squared) l2() float64 { return s.L2 }

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
	row0    int       // Shard's first row in the trainer's matrix
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

// gradientInto computes the worker's average gradient at weights wvec over
// its next mini-batch of size batch, writing it into the caller-owned grad
// (len(grad) must equal len(wvec); it is zeroed first). A non-nil lag
// records the batch rows' dots with its start weights (gather).
func (w *Worker) gradientInto(obj Objective, wvec []float64, batch int, grad []float64, lag *lagSink) {
	Zero(grad)
	if lag != nil {
		lag.row0 = w.row0
	}
	gradient(obj, wvec, w.Shard, w.NextBatch(batch), grad, lag)
}

// Gradient computes the worker's average gradient at weights wvec over its
// next mini-batch of size batch. The returned slice is the worker's own
// scratch buffer: it is valid until the next Gradient call on this worker,
// which keeps the steady-state loop allocation-free. Callers that need the
// value to outlive the next call must copy it.
func (w *Worker) Gradient(obj Objective, wvec []float64, batch int) []float64 {
	if cap(w.scratch) < len(wvec) {
		w.scratch = make([]float64, len(wvec))
	}
	g := w.scratch[:len(wvec)]
	w.gradientInto(obj, wvec, batch, g, nil)
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

	// Pre-sized scratch for the BSP loop, so the steady-state epoch path
	// allocates nothing: the gradient of the worker being computed, and the
	// aggregate its gradient is added to before the next worker's.
	grad []float64
	sum  []float64

	lag lagSink // RunEpochLagged's record, sized by its first call
}

// lagSink is a trainer's record of one lagged epoch (RunEpochLagged): each
// row's dot product with the weights the epoch started from, written by the
// epoch's own gradient passes as they gather the row.
type lagSink struct {
	v     []float64 // the epoch's start weights
	dots  []float64 // dots[r] = Dot(v, row r) once seen[r]
	seen  []bool
	row0  int  // the current worker's first row in the matrix
	first bool // the epoch's first iteration: the iterate still is v
}

// record stores d[j] as the dot of the current worker's shard row idx[j].
func (s *lagSink) record(idx []int, d *[8]float64) {
	for j, i := range idx {
		s.dots[s.row0+i] = d[j]
		s.seen[s.row0+i] = true
	}
}

// NewTrainer partitions data across cfg.Workers workers and zero-initializes
// the model. The shards are views of data, which the trainer only reads, so
// trainers over one matrix can run concurrently.
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
	shards := data.Partition(cfg.Workers)
	seedRng := sim.NewRand(cfg.Seed)
	row0 := 0
	for i, sh := range shards {
		w := NewWorker(sh, sim.NewRand(seedRng.Uint64()+uint64(i)))
		w.row0 = row0
		row0 += sh.Rows
		t.workers = append(t.workers, w)
	}
	buf := make([]float64, 2*data.Cols)
	t.grad, t.sum = buf[:data.Cols], buf[data.Cols:]
	return t, nil
}

// Weights returns the live weight vector (callers must not mutate it).
func (t *Trainer) Weights() []float64 { return t.weights }

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

// run performs one epoch of BSP iterations, the body of RunEpoch and
// RunEpochLagged; a non-nil lag records as gather does. Each iteration
// computes the worker gradients at the current weights one at a time into
// one scratch vector, adds each to the aggregate in worker order, and takes
// one SGD step with their average: the sequential reduction bit for bit,
// with nothing allocated.
func (t *Trainer) run(lag *lagSink) {
	for i, k := 0, t.IterationsPerEpoch(); i < k; i++ {
		if lag != nil {
			lag.first = i == 0
		}
		Zero(t.sum)
		for _, w := range t.workers {
			w.gradientInto(t.cfg.Objective, t.weights, t.cfg.BatchPerWkr, t.grad, lag)
			Add(t.grad, t.sum)
		}
		Axpy(-t.cfg.LearningRate/float64(len(t.workers)), t.sum, t.weights)
	}
	t.epoch++
}

// RunEpoch performs one epoch of BSP iterations and returns the full-data
// training loss at the end of the epoch. Detached engines call it once per
// simulated epoch, and the whole chain beneath it (worker gradients,
// batch cursoring, aggregation, the epoch-end Loss) is allocation-free
// (TestRunEpochZeroAlloc).
func (t *Trainer) RunEpoch() float64 {
	t.run(nil)
	return t.Loss()
}

// RunEpochLagged performs the epoch RunEpoch does, to the same weights bit
// for bit, but returns the full-data loss at the weights the epoch started
// from: what Loss returned before the call. It reads the data once where
// RunEpoch reads it twice: the gradient passes dot each row they gather with
// the current and the start weights in one dot8x2 call (the first iteration,
// still at the start weights, reuses its own dots), the rows no batch
// reached are dotted afterwards, and the rows' terms are summed in row
// order as Loss sums them. A caller wanting the loss after every epoch runs
// one epoch ahead. Allocation-free after the first call, which sizes the
// record (TestRunEpochLaggedZeroAlloc).
func (t *Trainer) RunEpochLagged() float64 {
	s := &t.lag
	if s.v == nil {
		s.v = make([]float64, len(t.weights))
		s.dots = make([]float64, t.data.Rows)
		s.seen = make([]bool, t.data.Rows)
	}
	copy(s.v, t.weights)
	clear(s.seen)
	t.run(s)
	return s.loss(t.cfg.Objective, t.data)
}

// loss dots the rows no batch reached with v, eight at a time, and returns
// o's loss at v over all of m: the rows' terms summed in row order, as loss
// sums them.
func (s *lagSink) loss(o Objective, m *dataset.Matrix) float64 {
	var b rowBlock
	var idx [8]int
	for r := 0; r < m.Rows; {
		n := 0
		for ; r < m.Rows && n < len(idx); r++ {
			if !s.seen[r] {
				idx[n] = r
				n++
			}
		}
		if n > 0 {
			b.gather(s.v, m, idx[:n], nil)
			for j, i := range idx[:n] {
				s.dots[i] = b.dot[j]
			}
		}
	}
	var sum float64
	for r, d := range s.dots {
		sum += o.term(d, m.Y[r])
	}
	return regularized(sum, m, o.l2(), s.v)
}

// Loss returns the average loss over the entire dataset at the current
// weights.
func (t *Trainer) Loss() float64 {
	return loss(t.cfg.Objective, t.weights, t.data)
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
