// Package predictor estimates how many epochs a training job needs to reach
// its target loss, in the two styles the paper contrasts (§II-C2, Fig. 4):
//
//   - Offline: the LambdaML-style sampling method — pre-train on a small
//     sample of the data for a few epochs before the job starts and
//     extrapolate. Cheap but inaccurate (the paper measures up to ~40%
//     average error), because a subsample converges differently and early
//     epochs poorly constrain the curve's tail.
//   - Online: observe the real job's loss after every epoch, fit the
//     convergence curve l(e) = 1/(a*e+b) + c, and solve for the target.
//     Error shrinks as epochs accumulate (~5% average in the paper).
package predictor

import (
	"math"

	"repro/internal/fit"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Offline is the sampling-based pre-training predictor.
type Offline struct {
	Model *workload.Model
}

// sampleFraction is the fraction of the data the pre-training sample
// represents; smaller samples distort convergence speed more.
const sampleFraction = 0.1

// NewOffline returns the LambdaML-style predictor, which pre-trains on a 10%
// sample of the data.
func NewOffline(m *workload.Model) *Offline {
	return &Offline{Model: m}
}

// PredictEpochs estimates the total epochs to reach target with the
// LambdaML sampling method: pre-train on a small sample of the data until
// the target loss (cheap, because the sample is small) and report the epoch
// count. The estimate inherits the sample's convergence bias — a subsample
// converges differently than the full data — which is exactly the ~40%
// average error the paper measures in Fig. 4(a). seed controls the sample
// draw.
func (o *Offline) PredictEpochs(target float64, seed uint64) int {
	// A curve model's walk and the trace live on the stack, and the trace's
	// epochs are the ramp.
	var run workload.CurveRun
	eng, real := o.sampleEngine(seed)
	if !real {
		run = o.sampleCurve(seed)
	}
	var trace [sampleHorizon]float64
	for e := 1; e <= sampleHorizon; e++ {
		var loss float64
		if real {
			loss = eng.NextEpoch()
		} else {
			loss = run.NextEpoch()
		}
		trace[e-1] = loss
		if loss <= target {
			return e
		}
	}
	// The sample never reached the target (its loss floor sits above it):
	// extrapolate a curve fit through the sampled trace.
	var f fit.Fitter
	if res, err := f.Fit(epochRamp[:sampleHorizon], trace[:], fit.Options{}); err == nil {
		if e, ok := fit.SolveForX(res.Params, target); ok {
			return clampEpochs(e)
		}
	}
	return clampEpochs(sampleHorizon * 2)
}

// sampleHorizon is how many epochs the offline sample pre-trains before
// extrapolating.
const sampleHorizon = 400

// sampleEngine builds the pre-training engine of a real model, which
// genuinely trains on a reduced sample (whose convergence differs from the
// full data). ok is false for a curve model, or when its trainer cannot be
// built; the sample is then sampleCurve's.
func (o *Offline) sampleEngine(seed uint64) (workload.Engine, bool) {
	if !o.Model.Real() {
		return nil, false
	}
	rows := int(float64(workload.RealEngineRows) * sampleFraction)
	if rows < 200 {
		rows = 200
	}
	eng, err := o.Model.NewRealEngine(workload.Hyperparams{LR: o.Model.DefaultLR}, rows, seed^0x5a3f)
	return eng, err == nil
}

// sampleCurve emulates the sampling distortion on the curve: the
// subsample's curve speed is a biased draw around the truth; less data,
// more bias. The walk is a value, so the estimate runs on the stack.
func (o *Offline) sampleCurve(seed uint64) workload.CurveRun {
	distort := sim.NewRand(seed ^ 0xb1a5)
	m := *o.Model
	sigma := 0.25 + 0.15*(1-sampleFraction)
	m.Curve.A *= distort.LogNormal(0, sigma)
	return m.NewCurveRun(workload.Hyperparams{LR: o.Model.DefaultLR}, seed^0x0ff1)
}

func clampEpochs(e float64) int {
	if math.IsNaN(e) || e < 1 {
		return 1
	}
	if e > 100000 {
		return 100000
	}
	return int(math.Ceil(e - 1e-9))
}

// MinPoints is how many observations an Online predictor requires before it
// offers predictions (the curve has three parameters).
const MinPoints = 4

// Online is the runtime convergence-curve fitter.
type Online struct {
	xs, ys []float64

	// refitBudget, when positive, caps LM iterations per refit. Only
	// sensible with warm start: each epoch's refit then continues from the
	// previous epoch's parameters, so the optimization is amortized across
	// the observation stream instead of re-converging from scratch.
	refitBudget int

	fitter  fit.Fitter
	lastFit [3]float64
	hasFit  bool
	dirty   bool
	// fixed bounds the retained history at cap(ys): once full, each
	// Observe shifts the window in place instead of appending, so the
	// steady-state observe+refit path never touches the heap (the fleet
	// configuration; see setFixedWindow). ramped, under fixed, marks xs as
	// a view of epochRamp rather than a buffer of its own.
	fixed, ramped bool

	// shared, when set, keeps the history as a node of a tree that other
	// predictors walk too (see Shared); xs and ys are then the node's
	// read-only views, and the node caches the predictions.
	shared *Shared
	node   *node
}

// Tuning bundles the fleet-scale online-fitter options: a bounded in-place
// history window, warm-started refits, and a per-epoch LM iteration budget.
// All three deviate (in the last float bits, or in which observations the
// pinned-floor fallback sees) from the historical exact configuration, so
// they are opt-in as a set — the fleet scenarios take them for the
// zero-alloc, few-iteration steady state; single-job experiments keep the
// defaults and their bit-identical outputs.
type Tuning struct {
	// FixedWindow bounds the retained history (min 3; see setFixedWindow).
	FixedWindow int
	// WarmStart seeds each refit from the previous epoch's parameters.
	WarmStart bool
	// RefitBudget caps LM iterations per refit; 0 leaves fit.Fitter's
	// default cap of 200. With warm start the budget is amortized: each
	// epoch refines the previous fit a few steps rather than re-converging
	// from the data guess.
	RefitBudget int
}

// ApplyTuning switches the predictor to the fleet configuration. A predictor
// from Shared.NewOnline leaves the tree with a private copy of its history.
func (o *Online) ApplyTuning(t Tuning) {
	if o.shared != nil {
		o.shared, o.node = nil, nil
		o.xs = append([]float64(nil), o.xs...)
		o.ys = append([]float64(nil), o.ys...)
	}
	if t.FixedWindow > 0 {
		o.setFixedWindow(t.FixedWindow)
	}
	o.setWarmStart(t.WarmStart)
	o.refitBudget = t.RefitBudget
}

// NewOnline returns an online predictor with defaults.
func NewOnline() *Online {
	return &Online{}
}

// setFixedWindow caps the retained history at w observations (w >= 3) in a
// preallocated buffer of w losses: once full, each Observe drops the oldest
// point with an in-place shift, keeping observation allocation-free. While
// the retained epochs are consecutive and within epochRamp — a job that
// observes 1, 2, 3, … as the fleet's do — xs is a view of the ramp that
// each Observe slides forward, so the window stores no epoch numbers. The
// first epoch that breaks the run, or lies past the ramp, copies the window's
// epochs into a buffer of its own once; from then on Observe shifts both.
// Predictions — including the pinned-floor fallback, which normally consults
// the full history — then see only the retained window. That behavioral
// difference is why this is opt-in: fleet-scale runs (thousands of
// controllers) take it for the bounded memory and zero-alloc steady state;
// single-job experiments keep the unbounded history and its historical
// outputs.
func (o *Online) setFixedWindow(w int) {
	if w < 3 {
		w = 3
	}
	o.fixed = true
	if drop := len(o.xs) - w; drop > 0 {
		o.xs, o.ys = o.xs[drop:], o.ys[drop:]
	}
	o.ys = append(make([]float64, 0, w), o.ys...)
	if view, ok := onRamp(o.xs); ok {
		o.xs, o.ramped = view, true
	} else {
		o.xs, o.ramped = append(make([]float64, 0, w), o.xs...), false
	}
	o.dirty = true
}

// epochRamp holds the epoch numbers 1, 2, …, len(epochRamp); it is never
// written. A fixed window of consecutive epochs reads its xs from it, and
// so does the offline sample's trace.
var epochRamp = func() (r [1024]float64) {
	for i := range r {
		r[i] = float64(i + 1)
	}
	return r
}()

// onRamp returns the view of epochRamp equal to xs, if xs are consecutive
// epochs that the ramp holds.
func onRamp(xs []float64) ([]float64, bool) {
	if len(xs) == 0 {
		return epochRamp[:0], true
	}
	first := xs[0]
	if !(first >= 1 && first == math.Trunc(first) && first+float64(len(xs)-1) <= float64(len(epochRamp))) {
		return nil, false
	}
	for i, x := range xs {
		if x != first+float64(i) {
			return nil, false
		}
	}
	i := int(first) - 1
	return epochRamp[i : i+len(xs)], true
}

// setWarmStart seeds each refit from the previous epoch's fitted
// parameters; steady-state refits then converge in a handful of LM
// iterations instead of dozens. Warm-started fits can differ from cold ones
// in the last float bits, so this is opt-in alongside setFixedWindow for
// fleet runs; the default cold path stays bit-identical to the historical
// outputs (fit's testdata/cold.bits).
func (o *Online) setWarmStart(on bool) {
	o.fitter.SetWarmStart(on)
}

// Observe records the loss after epoch (1-based).
func (o *Online) Observe(epoch int, loss float64) {
	if o.shared != nil {
		o.node = o.shared.child(o.node, float64(epoch), loss)
		o.xs, o.ys = o.node.xs, o.node.ys
	} else if o.fixed {
		o.observeFixed(epoch, loss)
	} else {
		o.xs = append(o.xs, float64(epoch))
		o.ys = append(o.ys, loss)
	}
	o.dirty = true
}

// observeFixed slides the fixed window (see setFixedWindow) to end at epoch.
func (o *Online) observeFixed(epoch int, loss float64) {
	full := len(o.ys) == cap(o.ys)
	if full {
		copy(o.ys, o.ys[1:])
		o.ys[len(o.ys)-1] = loss
	} else {
		o.ys = append(o.ys, loss)
	}
	if o.ramped {
		next := epoch // an empty window starts its run anywhere on the ramp
		if len(o.xs) > 0 {
			next = int(o.xs[len(o.xs)-1]) + 1
		}
		if epoch == next && epoch >= 1 && epoch <= len(epochRamp) {
			o.xs = epochRamp[epoch-len(o.ys) : epoch]
			return
		}
		// The run breaks: the window keeps its own epochs from here on.
		o.xs, o.ramped = append(make([]float64, 0, cap(o.ys)), o.xs...), false
	}
	if full {
		copy(o.xs, o.xs[1:])
		o.xs[len(o.xs)-1] = float64(epoch)
	} else {
		o.xs = append(o.xs, float64(epoch))
	}
}

// Observations reports how many epochs have been observed.
func (o *Online) Observations() int { return len(o.xs) }

// Ready reports whether enough observations exist to predict.
func (o *Online) Ready() bool { return len(o.xs) >= MinPoints }

// refit updates the cached curve parameters. The reusable Fitter is
// allocation-free; its Result.Params alias solver scratch, so the
// parameters are copied into the fixed lastFit array.
func (o *Online) refit() bool {
	if !o.Ready() {
		return false
	}
	if !o.dirty && o.hasFit {
		return true
	}
	res, err := o.fitter.Fit(o.xs, o.ys, fit.Options{MaxIter: o.refitBudget})
	if err != nil {
		return false
	}
	o.lastFit[0], o.lastFit[1], o.lastFit[2] = res.Params[0], res.Params[1], res.Params[2]
	o.hasFit = true
	o.dirty = false
	return true
}

// Curve returns the latest fitted parameters (a, b, c), refitting if
// needed. The slice is a read-only view of predictor-owned storage.
func (o *Online) Curve() ([]float64, bool) {
	if !o.refit() {
		return nil, false
	}
	return o.lastFit[:], true
}

// PredictTotalEpochs estimates the total number of epochs (from the start of
// training) needed to reach target. ok=false before enough observations.
// Together with Observe it forms the per-epoch observe+refit+predict cycle,
// allocation-free under the fleet tuning (TestFixedWindowObserveZeroAlloc).
//
// When the freely fitted floor c sits at or above the target — common early
// in training, when few points barely constrain the curve's tail — the
// prediction would be infinite. The user declared the target reachable, so
// the predictor falls back to a reachability prior: fix c just below the
// target and fit only (a, b), which is a linear least-squares problem in
// z = 1/(loss - c).
//
// A predictor in a Shared tree answers from its node when the history was
// already asked for this target.
func (o *Online) PredictTotalEpochs(target float64) (int, bool) {
	if o.shared == nil || !o.Ready() {
		return o.predictTotalEpochs(target)
	}
	if total, ok, known := o.shared.predictionOf(o.node, target); known {
		return total, ok
	}
	total, ok := o.predictTotalEpochs(target)
	o.shared.storePrediction(o.node, target, total, ok)
	return total, ok
}

func (o *Online) predictTotalEpochs(target float64) (int, bool) {
	params, ok := o.Curve()
	if !ok {
		return 0, false
	}
	e, solvable := fit.SolveForX(params, target)
	if !solvable && o.descending() {
		// The free fit put its floor above the target while the loss is
		// still clearly falling — the tail is simply unconstrained yet, so
		// lean on the reachability prior. A plateaued curve (not
		// descending) keeps reporting the target as unreachable.
		e, solvable = o.constrainedSolve(target)
	}
	if !solvable {
		return 0, false
	}
	total := clampEpochs(e)
	last := int(o.xs[len(o.xs)-1])
	// Never predict fewer epochs than already observed, and bound the
	// extrapolation: with few observations the curve's floor is barely
	// constrained and the solved horizon can explode, so cap it at 8x the
	// observed horizon (the fit re-extends the cap as epochs accumulate).
	if total < last {
		total = last
	}
	if cap := 8 * last; total > cap {
		total = cap
	}
	return total, true
}

// descending reports whether the recent observations still trend down
// meaningfully (average of the last three deltas below -0.5% of the
// current loss).
func (o *Online) descending() bool {
	n := len(o.ys)
	if n < 4 {
		return true // too early to call it a plateau
	}
	avgDelta := (o.ys[n-1] - o.ys[n-4]) / 3
	return avgDelta < -0.005*math.Abs(o.ys[n-1])
}

// pinnedFloors is the grid of plausible floor fractions constrainedSolve
// sweeps; a package-level array so the sweep builds no per-call slice.
var pinnedFloors = [...]float64{0.2, 0.4, 0.6, 0.8, 0.9}

// constrainedSolve fits l(e) = 1/(a e + b) + c with c pinned below the
// target — for a grid of plausible floors, keeping the best-SSE fit — and
// returns the e at which that curve reaches the target.
func (o *Online) constrainedSolve(target float64) (float64, bool) {
	bestSSE := math.Inf(1)
	var bestE float64
	found := false
	for _, frac := range pinnedFloors {
		e, sse, ok := o.pinnedFit(target, target*frac)
		if ok && sse < bestSSE {
			bestSSE, bestE, found = sse, e, true
		}
	}
	return bestE, found
}

// pinnedFit solves the linear least squares z = a e + b with z = 1/(y - c)
// for a fixed floor c, returning the solved target epoch and the fit's SSE
// in the original loss space.
func (o *Online) pinnedFit(target, c float64) (e, sse float64, ok bool) {
	var sx, sy, sxx, sxy float64
	n := 0
	for i := range o.xs {
		d := o.ys[i] - c
		if d <= 1e-9 {
			// Already at/below the pinned floor: the target is essentially
			// reached at this epoch.
			return o.xs[i], 0, true
		}
		z := 1 / d
		sx += o.xs[i]
		sy += z
		sxx += o.xs[i] * o.xs[i]
		sxy += o.xs[i] * z
		n++
	}
	if n < 2 {
		return 0, 0, false
	}
	den := float64(n)*sxx - sx*sx
	if den <= 1e-12 {
		return 0, 0, false
	}
	a := (float64(n)*sxy - sx*sy) / den
	b := (sy - a*sx) / float64(n)
	if a <= 0 {
		return 0, 0, false
	}
	for i := range o.xs {
		pred := 1/(a*o.xs[i]+b) + c
		r := pred - o.ys[i]
		sse += r * r
	}
	params := [3]float64{a, b, c}
	e, solved := fit.SolveForX(params[:], target)
	return e, sse, solved
}
