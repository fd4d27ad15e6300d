// Package workload defines the evaluated ML models as profiles combining
//
//   - the model size M (the unit of every parameter synchronization),
//   - a compute-intensity model u(m): seconds to process 1 MB of training
//     data given a function with memory m (CPU share is proportional to
//     memory, as on Lambda),
//   - a loss engine producing the per-epoch training loss.
//
// LR and SVM train for real via the internal/ml SGD engine on synthetic
// data (so convergence is genuinely stochastic); MobileNet, ResNet50 and
// BERT-base use parametric convergence curves l(e) = 1/(a*e+b) + c with
// noise and a hyperparameter response surface (the DESIGN.md substitution),
// using the paper's model sizes (12 MB / 89 MB / 340 MB) and Table IV
// configurations.
package workload

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/sim"
)

// Hyperparams are the tunables a hyperparameter-tuning trial explores.
type Hyperparams struct {
	LR       float64 // learning rate
	Momentum float64 // kept for trial diversity; affects curve speed mildly
}

// Engine produces the per-epoch training loss of one training job (or one
// tuning trial). Loss depends only on epochs run, never on the resource
// allocation: under BSP the model state lives in external storage, so
// scaling functions changes wall-clock time and cost but not the statistics
// (the assumption Eq. 13-16 rest on).
type Engine interface {
	// NextEpoch advances one epoch and returns the training loss after it.
	NextEpoch() float64
	// EpochsRun reports how many epochs have completed.
	EpochsRun() int
	// Loss returns the most recent loss (initial loss before any epoch).
	Loss() float64
	// AppendSnapshot appends the engine state, serialized to a float
	// vector, to dst and returns the extended slice; dst's prefix is kept,
	// and a dst with room for the state is not reallocated. The trainer
	// checkpoints this state through external storage so a restarted
	// function group resumes rather than retrains (the delayed-restart
	// handoff of Fig. 8).
	AppendSnapshot(dst []float64) []float64
	// Restore moves the engine back to a previous snapshot's epoch and
	// loss, or refuses a snapshot it could not have taken and stays put.
	Restore(state []float64) error
}

// CurveParams parameterizes the parametric convergence family
// l(e) = 1/(A*e + B) + C.
type CurveParams struct {
	A, B, C float64
	// Noise is the multiplicative log-normal sigma applied to (l - C).
	Noise float64
}

// Eval returns the noiseless curve value after e epochs.
func (cp CurveParams) Eval(e float64) float64 {
	return 1/(cp.A*e+cp.B) + cp.C
}

// EpochsToReach returns the smallest whole number of epochs at which the
// noiseless curve reaches target, or ok=false if target <= C.
func (cp CurveParams) EpochsToReach(target float64) (int, bool) {
	if target <= cp.C || cp.A <= 0 {
		return 0, false
	}
	e := (1/(target-cp.C) - cp.B) / cp.A
	if e < 1 {
		e = 1
	}
	return int(math.Ceil(e - 1e-9)), true
}

// Model profiles one evaluated ML workload.
type Model struct {
	Name       string
	Dataset    dataset.Spec
	ParamsMB   float64 // M: model size exchanged at each synchronization
	TargetLoss float64 // Table IV objective value
	Batch      int     // b_z: per-function mini-batch rows (Table IV)
	DefaultLR  float64 // Table IV learning rate

	// UBase is the time (seconds) one full vCPU takes to process 1 MB of
	// this workload's training data; u(m) = UBase / cpuShare(m).
	UBase float64
	// VCPUCap bounds how many vCPUs the workload can exploit.
	VCPUCap float64
	// MinMemoryMB is the smallest function memory that can run the workload
	// (model + runtime + working set).
	MinMemoryMB int

	// Curve drives the parametric loss engine and seeds offline prediction.
	Curve CurveParams
	// Objective names the internal/ml objective for real training ("" for
	// curve-only models).
	Objective string
	// GenFlip / GenNoise configure the synthetic data generator for real
	// training so the Table IV target loss is reachable.
	GenFlip  float64
	GenNoise float64
	// LROpt is the learning rate at which the curve response peaks.
	LROpt float64
}

// Real reports whether the model trains numerically (LR/SVM).
func (m *Model) Real() bool { return m.Objective != "" }

// U returns u(m): seconds to process 1 MB of training data in a function
// with memMB memory, given vCPU share memMB/1769 capped at the workload's
// parallelism limit.
func (m *Model) U(memMB int) float64 {
	share := float64(memMB) / 1769
	if share > m.VCPUCap {
		share = m.VCPUCap
	}
	if share <= 0 {
		return math.Inf(1)
	}
	return m.UBase / share
}

// Feasible reports whether a function of memMB can run the workload when
// the dataset is split across n functions (it must hold the model, the
// runtime and its data partition).
func (m *Model) Feasible(n, memMB int) bool {
	if memMB < m.MinMemoryMB {
		return false
	}
	partition := m.Dataset.PartitionSizeMB(n)
	// Runtime + model replica + partition must fit with some headroom.
	need := 150 + 2*m.ParamsMB + 1.2*partition
	return float64(memMB) >= need
}

// LRHiggs returns logistic regression on Higgs (Table IV row 1).
func LRHiggs() *Model {
	return &Model{
		Name: "LR-Higgs", Dataset: dataset.Higgs(), ParamsMB: 0.001,
		TargetLoss: 0.66, Batch: 10_000, DefaultLR: 0.01,
		UBase: 0.25, VCPUCap: 2, MinMemoryMB: 256,
		Curve:     CurveParams{A: 0.054, B: 5.78, C: 0.52, Noise: 0.03},
		Objective: "logistic", GenFlip: 0.22, LROpt: 0.01,
	}
}

// SVMHiggs returns a linear SVM on Higgs (Table IV row 1).
func SVMHiggs() *Model {
	return &Model{
		Name: "SVM-Higgs", Dataset: dataset.Higgs(), ParamsMB: 0.004,
		TargetLoss: 0.48, Batch: 10_000, DefaultLR: 0.01,
		UBase: 0.22, VCPUCap: 2, MinMemoryMB: 256,
		Curve:     CurveParams{A: 0.205, B: 1.54, C: 0.35, Noise: 0.03},
		Objective: "hinge", GenFlip: 0.09, LROpt: 0.01,
	}
}

// LRYFCC returns least-squares regression on the YFCC subset (Table IV row
// 2; target loss 50 is squared loss).
func LRYFCC() *Model {
	return &Model{
		Name: "LR-YFCC", Dataset: dataset.YFCC(), ParamsMB: 0.13,
		TargetLoss: 50, Batch: 800, DefaultLR: 0.01,
		UBase: 0.3, VCPUCap: 2, MinMemoryMB: 512,
		Curve:     CurveParams{A: 0.0019, B: 0.0078, C: 32, Noise: 0.03},
		Objective: "squared", GenNoise: 8, LROpt: 0.01,
	}
}

// SVMYFCC returns a linear SVM on the YFCC subset (squared-loss target per
// Table IV).
func SVMYFCC() *Model {
	return &Model{
		Name: "SVM-YFCC", Dataset: dataset.YFCC(), ParamsMB: 0.13,
		TargetLoss: 50, Batch: 800, DefaultLR: 0.01,
		UBase: 0.28, VCPUCap: 2, MinMemoryMB: 512,
		Curve:     CurveParams{A: 0.0021, B: 0.0078, C: 30, Noise: 0.03},
		Objective: "squared", GenNoise: 7.5, LROpt: 0.01,
	}
}

// MobileNet returns MobileNet on Cifar10 (12 MB parameters, Table IV row 3).
func MobileNet() *Model {
	return &Model{
		Name: "MobileNet-Cifar10", Dataset: dataset.Cifar10(), ParamsMB: 12,
		TargetLoss: 0.2, Batch: 128, DefaultLR: 0.01,
		UBase: 40, VCPUCap: 6, MinMemoryMB: 512,
		Curve: CurveParams{A: 0.21, B: 0.44, C: 0.05, Noise: 0.04},
		LROpt: 0.01,
	}
}

// ResNet50 returns ResNet50 on Cifar10 (89 MB parameters, Table IV row 4).
func ResNet50() *Model {
	return &Model{
		Name: "ResNet50-Cifar10", Dataset: dataset.Cifar10(), ParamsMB: 89,
		TargetLoss: 0.4, Batch: 32, DefaultLR: 0.01,
		UBase: 55, VCPUCap: 6, MinMemoryMB: 1024,
		Curve: CurveParams{A: 0.082, B: 0.45, C: 0.1, Noise: 0.04},
		LROpt: 0.01,
	}
}

// BERT returns BERT-base on IMDb (340 MB parameters, Table IV row 5).
func BERT() *Model {
	return &Model{
		Name: "BERT-IMDb", Dataset: dataset.IMDb(), ParamsMB: 340,
		TargetLoss: 0.6, Batch: 32, DefaultLR: 0.00005,
		UBase: 60, VCPUCap: 6, MinMemoryMB: 2048,
		Curve: CurveParams{A: 0.053, B: 2.94, C: 0.35, Noise: 0.03},
		LROpt: 0.00005,
	}
}

// Evaluated returns the five models of the paper's evaluation, in figure
// order (LR, SVM, MobileNet, ResNet50, BERT).
func Evaluated() []*Model {
	return []*Model{LRHiggs(), SVMHiggs(), MobileNet(), ResNet50(), BERT()}
}

// ByName resolves a model profile by name.
func ByName(name string) (*Model, error) {
	for _, m := range append(Evaluated(), LRYFCC(), SVMYFCC()) {
		if m.Name == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown model %q", name)
}

// IterationsPerEpoch returns k = D/(n*b_z): the BSP iterations one epoch
// takes with n functions, each consuming Batch rows per iteration.
func (m *Model) IterationsPerEpoch(n int) int {
	if n < 1 {
		n = 1
	}
	k := m.Dataset.Samples / (n * m.Batch)
	if k < 1 {
		k = 1
	}
	return k
}

// --- Loss engines ---

// CurveRun is one job's walk along the parametric family, held by value:
// the curve it follows, the stream its noise comes from, and where it is.
// A value is its own state, so a run lives wherever its owner does — a
// fleet tenant's record, or the stack of an offline estimate — and costs no
// allocation.
type CurveRun struct {
	params CurveParams
	rng    sim.Rand
	epoch  int
	last   float64
}

// NewCurveRun returns the parametric walk for hyperparameters hp with a
// stream seeded by seed: learning rates away from LROpt slow the curve and
// raise its floor, which is what gives SHA something to select on, and a
// per-trial speed draw from the stream models run-to-run stochasticity.
func (m *Model) NewCurveRun(hp Hyperparams, seed uint64) CurveRun {
	cp := m.Curve
	if hp.LR > 0 && m.LROpt > 0 {
		d := math.Log10(hp.LR / m.LROpt)
		speed := math.Exp(-d * d / 2) // 1 at the optimum, slower away
		cp.A *= speed * (0.9 + 0.2*math.Abs(hp.Momentum))
		cp.C += (m.firstLoss() - cp.C) * 0.4 * (1 - speed) // bad lr raises floor
	}
	rng := *sim.NewRand(seed)
	cp.A *= rng.LogNormal(0, 0.10)
	return cp.Run(rng)
}

// Run returns the walk along cp: each epoch's loss is the curve value with
// multiplicative log-normal noise above the floor C, drawn from rng.
func (cp CurveParams) Run(rng sim.Rand) CurveRun {
	return CurveRun{params: cp, rng: rng, last: cp.Eval(0)}
}

// NextEpoch advances the walk one epoch and returns its loss.
func (r *CurveRun) NextEpoch() float64 {
	r.epoch++
	base := r.params.Eval(float64(r.epoch))
	if r.params.Noise > 0 {
		base = r.params.C + (base-r.params.C)*r.rng.LogNormal(0, r.params.Noise)
	}
	r.last = base
	return base
}

// curveEngine is the Engine over a CurveRun.
type curveEngine struct{ CurveRun }

// NewCurveEngine returns a parametric engine for hyperparameters hp.
func (m *Model) NewCurveEngine(hp Hyperparams, seed uint64) Engine {
	return &curveEngine{m.NewCurveRun(hp, seed)}
}

func (m *Model) firstLoss() float64 { return m.Curve.Eval(0) }

func (e *curveEngine) EpochsRun() int { return e.epoch }
func (e *curveEngine) Loss() float64  { return e.last }

// AppendSnapshot implements Engine: [epoch, lastLoss].
func (e *curveEngine) AppendSnapshot(dst []float64) []float64 {
	return append(dst, float64(e.epoch), e.last)
}

// wholeEpoch reports whether a snapshot's epoch is a whole number in
// [0, 2^53], the range in which every integer is a float64 exactly.
func wholeEpoch(ep float64) bool { return ep >= 0 && ep <= 1<<53 && ep == math.Trunc(ep) }

// Restore implements Engine. The epoch must be a whole number in
// [0, 2^53] and the loss finite; anything else is a corrupt checkpoint and
// leaves the engine as it was.
func (e *curveEngine) Restore(state []float64) error {
	if len(state) != 2 {
		return fmt.Errorf("workload: curve snapshot has %d values, want 2", len(state))
	}
	ep, loss := state[0], state[1]
	if !wholeEpoch(ep) {
		return fmt.Errorf("workload: curve snapshot epoch %g is not a whole number in [0, 2^53]", ep)
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return fmt.Errorf("workload: curve snapshot loss %g is not finite", loss)
	}
	e.epoch = int(ep)
	e.last = loss
	return nil
}

// realEngine is a cursor over the shared SGD trajectory of its inputs (see
// trajectory.go).
type realEngine struct {
	traj  *trajectory
	epoch int
	last  float64
}

// RealEngineRows is the default in-memory sample size for real engines; the
// nominal dataset Spec still drives timing and billing.
const RealEngineRows = 4000

// NewRealEngine returns a real-SGD engine for hyperparameters hp, or an
// error for curve-only models.
func (m *Model) NewRealEngine(hp Hyperparams, rows int, seed uint64) (Engine, error) {
	if !m.Real() {
		return nil, fmt.Errorf("workload: %s has no real training engine", m.Name)
	}
	if rows <= 0 {
		rows = RealEngineRows
	}
	obj, err := ml.ObjectiveByName(m.Objective, 1e-4)
	if err != nil {
		return nil, err
	}
	features := m.Dataset.Features
	if features > 256 {
		features = 256
	}
	gen := dataset.GenConfig{Samples: rows, Features: features, NoiseFlip: m.GenFlip}
	if m.Dataset.Task == dataset.Regression {
		gen = dataset.GenConfig{Samples: rows, Features: features, NoiseStd: m.GenNoise}
	}
	lr := hp.LR
	if lr <= 0 {
		lr = m.DefaultLR
	}
	// The in-memory worker count is fixed: it reflects the statistics of
	// BSP training, not the simulated function count.
	traj, err := trajectoryFor(m.Dataset.Task, gen, ml.Config{
		Objective:    obj,
		Workers:      8,
		BatchPerWkr:  rows / 8 / 5,
		LearningRate: lr * lrScale(m.Objective),
		Seed:         seed,
	})
	if err != nil {
		return nil, err
	}
	e := &realEngine{traj: traj}
	e.last, _ = traj.at(0)
	return e, nil
}

// lrScale maps the paper's nominal learning rates (tuned for their feature
// scaling) onto rates that behave equivalently on our standard-normal
// synthetic features.
func lrScale(objective string) float64 {
	switch objective {
	case "squared":
		return 0.2
	case "hinge":
		return 3
	default:
		return 1.5
	}
}

// NextEpoch implements Engine; behind the frontier it is one locked load.
func (e *realEngine) NextEpoch() float64 {
	e.epoch++
	e.last, _ = e.traj.at(e.epoch)
	return e.last
}

func (e *realEngine) EpochsRun() int { return e.epoch }
func (e *realEngine) Loss() float64  { return e.last }

// AppendSnapshot implements Engine: [epoch, lastLoss, weights...].
func (e *realEngine) AppendSnapshot(dst []float64) []float64 {
	dst = slices.Grow(dst, 2+e.traj.data.Cols)
	dst = append(dst, float64(e.epoch), e.last)
	_, w := e.traj.at(e.epoch)
	return append(dst, w...)
}

// Restore implements Engine the way curveEngine does: it moves the
// cursor to the snapshot's epoch, where training continues on the
// trajectory. The epoch must be a whole number in [0, 2^53] and the weights
// bit-equal to those the trajectory has recorded at that epoch; anything
// else is a corrupt checkpoint and leaves the engine as it was.
func (e *realEngine) Restore(state []float64) error {
	if want := 2 + e.traj.data.Cols; len(state) != want {
		return fmt.Errorf("workload: real snapshot has %d values, want %d", len(state), want)
	}
	ep := state[0]
	if !wholeEpoch(ep) {
		return fmt.Errorf("workload: real snapshot epoch %g is not a whole number in [0, 2^53]", ep)
	}
	if w, ok := e.traj.recorded(int(ep)); !ok || !sameBits(w, state[2:]) {
		return fmt.Errorf("workload: real snapshot weights are not the trajectory's at epoch %g", ep)
	}
	e.epoch, e.last = int(ep), state[1]
	return nil
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// NewEngine returns the preferred engine for the model: real SGD when
// available, the parametric curve otherwise.
func (m *Model) NewEngine(hp Hyperparams, seed uint64) Engine {
	if m.Real() {
		if e, err := m.NewRealEngine(hp, 0, seed); err == nil {
			return e
		}
	}
	return m.NewCurveEngine(hp, seed)
}
