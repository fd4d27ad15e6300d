package predictor

import (
	"math"
	"testing"

	"repro/internal/workload"
)

// groundTruthEpochs runs the engine until target and returns the epoch count.
func groundTruthEpochs(m *workload.Model, seed uint64, target float64) int {
	eng := m.NewEngine(workload.Hyperparams{LR: m.DefaultLR}, seed)
	for e := 1; e <= 10000; e++ {
		if eng.NextEpoch() <= target {
			return e
		}
	}
	return 10000
}

func TestOfflinePredictsRightOrderOfMagnitude(t *testing.T) {
	m := workload.MobileNet()
	truth := groundTruthEpochs(m, 100, m.TargetLoss)
	pred := NewOffline(m).PredictEpochs(m.TargetLoss, 1)
	if pred < truth/5 || pred > truth*5 {
		t.Errorf("offline prediction %d wildly off truth %d", pred, truth)
	}
}

func TestOfflineWorksForRealModels(t *testing.T) {
	m := workload.LRHiggs()
	pred := NewOffline(m).PredictEpochs(m.TargetLoss, 2)
	if pred < 1 || pred > 100000 {
		t.Errorf("offline prediction %d out of sane range", pred)
	}
}

func TestOfflinePredictionsVaryAcrossSeeds(t *testing.T) {
	m := workload.ResNet50()
	o := NewOffline(m)
	a, b := o.PredictEpochs(m.TargetLoss, 1), o.PredictEpochs(m.TargetLoss, 99)
	if a == b {
		t.Skip("identical predictions possible but unlikely; rerun with new seeds")
	}
}

// TestOfflineFallbackExtrapolates covers the path behind the 400-epoch
// horizon: a target the sample never reaches is extrapolated from a cold
// curve fit through the sampled trace, or reported as twice the horizon
// when the fitted floor sits above it. Expected values were taken at the
// parent commit, from the slice-based solver this path used to call.
func TestOfflineFallbackExtrapolates(t *testing.T) {
	for _, tc := range []struct {
		m      *workload.Model
		factor float64 // target = factor * the curve's true floor
		seed   uint64
		want   int
	}{
		{workload.MobileNet(), 0.99, 1, 800}, // below the floor: unsolvable
		{workload.MobileNet(), 1.01, 1, 6839},
		{workload.MobileNet(), 1.005, 2, 77517},
		{workload.ResNet50(), 1.005, 2, 69481},
		{workload.ResNet50(), 1.005, 3, 800}, // fitted floor above the target
	} {
		target := tc.m.Curve.C * tc.factor
		if got := NewOffline(tc.m).PredictEpochs(target, tc.seed); got != tc.want {
			t.Errorf("%s target=%g seed=%d: %d epochs, want %d", tc.m.Name, target, tc.seed, got, tc.want)
		}
	}
}

func TestOnlineNotReadyEarly(t *testing.T) {
	o := NewOnline()
	o.Observe(1, 1.0)
	o.Observe(2, 0.8)
	if o.Ready() {
		t.Error("2 observations should not be enough")
	}
	if _, ok := o.PredictTotalEpochs(0.5); ok {
		t.Error("prediction before ready should fail")
	}
}

func TestOnlineRecoversCurve(t *testing.T) {
	m := workload.MobileNet()
	truth := groundTruthEpochs(m, 7, m.TargetLoss)
	eng := m.NewCurveEngine(workload.Hyperparams{LR: m.DefaultLR}, 7)
	o := NewOnline()
	var pred int
	for e := 1; e <= truth/2+2; e++ {
		o.Observe(e, eng.NextEpoch())
	}
	pred, ok := o.PredictTotalEpochs(m.TargetLoss)
	if !ok {
		t.Fatal("online prediction unavailable at half horizon")
	}
	relErr := math.Abs(float64(pred-truth)) / float64(truth)
	if relErr > 0.5 {
		t.Errorf("online prediction %d vs truth %d (err %.0f%%)", pred, truth, relErr*100)
	}
}

func TestOnlineErrorShrinksWithObservations(t *testing.T) {
	// Fig. 4(b): the online error decreases as training progresses.
	// Average over several seeds to wash out noise.
	m := workload.ResNet50()
	const seeds = 8
	errAt := func(fraction float64) float64 {
		var sum float64
		for s := uint64(0); s < seeds; s++ {
			truth := groundTruthEpochs(m, 200+s, m.TargetLoss)
			eng := m.NewCurveEngine(workload.Hyperparams{LR: m.DefaultLR}, 200+s)
			o := NewOnline()
			upto := int(float64(truth) * fraction)
			if upto < 4 {
				upto = 4
			}
			for e := 1; e <= upto; e++ {
				o.Observe(e, eng.NextEpoch())
			}
			if pred, ok := o.PredictTotalEpochs(m.TargetLoss); ok {
				sum += math.Abs(float64(pred-truth)) / float64(truth)
			} else {
				sum += 1
			}
		}
		return sum / seeds
	}
	early, late := errAt(0.2), errAt(0.8)
	if late >= early {
		t.Errorf("online error should shrink: early %.3f, late %.3f", early, late)
	}
	if late > 0.25 {
		t.Errorf("late online error %.3f too high; paper reports ~5%%", late)
	}
}

func TestOnlineBeatsOfflineOnAverage(t *testing.T) {
	// Finding 2: online prediction is more accurate than offline sampling.
	m := workload.MobileNet()
	const seeds = 10
	var offErr, onErr float64
	for s := uint64(0); s < seeds; s++ {
		truth := groundTruthEpochs(m, 300+s, m.TargetLoss)
		off := NewOffline(m).PredictEpochs(m.TargetLoss, 300+s)
		offErr += math.Abs(float64(off-truth)) / float64(truth)

		eng := m.NewCurveEngine(workload.Hyperparams{LR: m.DefaultLR}, 300+s)
		o := NewOnline()
		for e := 1; e <= truth*3/4; e++ {
			o.Observe(e, eng.NextEpoch())
		}
		if pred, ok := o.PredictTotalEpochs(m.TargetLoss); ok {
			onErr += math.Abs(float64(pred-truth)) / float64(truth)
		} else {
			onErr += 1
		}
	}
	if onErr >= offErr {
		t.Errorf("online total error %.3f should beat offline %.3f", onErr/seeds, offErr/seeds)
	}
}

func TestPredictTotalNeverBelowObserved(t *testing.T) {
	o := NewOnline()
	// A curve that has already passed the target.
	losses := []float64{1.0, 0.5, 0.3, 0.2, 0.15, 0.12}
	for i, l := range losses {
		o.Observe(i+1, l)
	}
	total, ok := o.PredictTotalEpochs(0.5)
	if !ok {
		t.Fatal("prediction should be available")
	}
	if total < len(losses) {
		t.Errorf("total %d below observed %d", total, len(losses))
	}
}

func TestUnreachableTargetReported(t *testing.T) {
	o := NewOnline()
	// Flat losses: floor ~0.5, target 0.1 unreachable.
	for e := 1; e <= 10; e++ {
		o.Observe(e, 0.5+0.001/float64(e))
	}
	if _, ok := o.PredictTotalEpochs(0.1); ok {
		t.Error("target below the fitted floor should be unreachable")
	}
}

func TestWindowLimitsFit(t *testing.T) {
	o := NewOnline()
	o.setFixedWindow(5)
	for e := 1; e <= 20; e++ {
		o.Observe(e, 1.0/float64(e)+0.2)
	}
	if o.Observations() != 5 {
		t.Fatalf("a window of 5 retained %d observations", o.Observations())
	}
	if _, ok := o.Curve(); !ok {
		t.Fatal("windowed fit failed")
	}
}

func TestCurveCaching(t *testing.T) {
	o := NewOnline()
	for e := 1; e <= 6; e++ {
		o.Observe(e, 1.0/float64(e)+0.3)
	}
	view, ok := o.Curve()
	if !ok {
		t.Fatal("fit failed")
	}
	// Curve returns a view of predictor-owned storage: copy before
	// observing more, or the comparison would be against itself.
	p1 := append([]float64(nil), view...)
	p2, _ := o.Curve()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Error("cached curve changed without new observations")
		}
	}
	o.Observe(7, 0.44)
	p3, _ := o.Curve()
	same := true
	for i := range p1 {
		if p1[i] != p3[i] {
			same = false
		}
	}
	if same {
		t.Error("new observation should refresh the fit")
	}
}

// TestDegenerateFitTargetJustAboveFloor is the predictor/scheduler-level
// regression for the SolveForX (+Inf, true) leak. With plateaued losses and
// a target an epsilon above the fitted floor, the pre-fix chain solved to an
// astronomical epoch count that the clamps silently turned into "reachable
// at the 8x-horizon cap" — the scheduler would then keep budgeting for a
// target the curve never meets. Post-fix the degenerate solve reports
// unreachable, matching the plateau.
func TestDegenerateFitTargetJustAboveFloor(t *testing.T) {
	o := NewOnline()
	// Converged: the loss has flattened at ~0.6.
	losses := []float64{1.0, 0.8, 0.7, 0.65, 0.62, 0.61, 0.605, 0.602, 0.601, 0.6005}
	for i, y := range losses {
		o.Observe(i+1, y)
	}
	params, ok := o.Curve()
	if !ok {
		t.Fatal("fit failed")
	}
	// A 1e-12 gap is representable above a ~0.6 floor (1e-300 would round
	// away) yet solves to ~1e12 epochs — absurd, and pre-fix reported it
	// reachable at the clamped horizon.
	target := params[2] + 1e-12
	if total, ok := o.PredictTotalEpochs(target); ok {
		t.Fatalf("epsilon-above-floor target on a plateau reported reachable: total=%d", total)
	}
}

// TestRemainingNeverNegativeOrHuge pins the bound the scheduler relies on:
// whenever the predictor offers a total-epochs estimate, what remains of it
// after the observed epochs (the scheduler's predicted - epoch) is in
// [0, 8x the observed horizon] — a degenerate fit must not leak a negative
// or unbounded remaining into allocation selection.
func TestRemainingNeverNegativeOrHuge(t *testing.T) {
	curves := []func(e float64) float64{
		func(e float64) float64 { return 1/(0.2*e+1) + 0.5 },      // clean descent
		func(e float64) float64 { return 0.5 + 0.001/e },          // near-flat
		func(e float64) float64 { return 0.6 + 0.2*math.Exp(-e) }, // fast plateau
	}
	for ci, f := range curves {
		o := NewOnline()
		for e := 1; e <= 12; e++ {
			o.Observe(e, f(float64(e)))
		}
		params, ok := o.Curve()
		if !ok {
			continue
		}
		// Probe targets from comfortably reachable down to degenerate
		// epsilon-above-floor.
		for _, gap := range []float64{0.1, 1e-3, 1e-6, 1e-9, 1e-100, 1e-300} {
			target := params[2] + gap
			total, ok := o.PredictTotalEpochs(target)
			if !ok {
				continue
			}
			if rem := total - 12; rem < 0 || rem > 8*12 {
				t.Fatalf("curve %d gap %g: remaining=%d outside [0, 96]", ci, gap, rem)
			}
		}
	}
}
