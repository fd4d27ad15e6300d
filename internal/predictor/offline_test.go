package predictor

import (
	"testing"

	"repro/internal/fit"
	"repro/internal/sim"
	"repro/internal/workload"
)

// refPredictEpochs is Offline.PredictEpochs on a curve model as it was
// written over a heap engine: the distorted model's NewCurveEngine walked
// through the Engine interface, with its own epoch array beside the trace.
func refPredictEpochs(o *Offline, target float64, seed uint64) int {
	const horizon = 400
	distort := sim.NewRand(seed ^ 0xb1a5)
	m := *o.Model
	sigma := 0.25 + 0.15*(1-sampleFraction)
	m.Curve.A *= distort.LogNormal(0, sigma)
	eng := m.NewCurveEngine(workload.Hyperparams{LR: o.Model.DefaultLR}, seed^0x0ff1)
	var xs, trace [horizon]float64
	for e := 1; e <= horizon; e++ {
		loss := eng.NextEpoch()
		xs[e-1], trace[e-1] = float64(e), loss
		if loss <= target {
			return e
		}
	}
	var f fit.Fitter
	if res, err := f.Fit(xs[:], trace[:], fit.Options{}); err == nil {
		if e, ok := fit.SolveForX(res.Params, target); ok {
			return clampEpochs(e)
		}
	}
	return clampEpochs(horizon * 2)
}

// TestOfflineStackWalkMatchesEngine: on every curve model, at the model's
// target and at targets near its floor (which take the fit behind the
// horizon), the stack walk gives the engine-based estimate at 200 seeds and
// touches no heap.
func TestOfflineStackWalkMatchesEngine(t *testing.T) {
	curves := 0
	for _, m := range append(workload.Evaluated(), workload.LRYFCC(), workload.SVMYFCC()) {
		if m.Real() {
			continue
		}
		curves++
		o := NewOffline(m)
		for _, target := range []float64{m.TargetLoss, m.Curve.C * 1.01, m.Curve.C * 0.99} {
			for seed := uint64(0); seed < 200; seed++ {
				if got, want := o.PredictEpochs(target, seed), refPredictEpochs(o, target, seed); got != want {
					t.Fatalf("%s target=%g seed=%d: %d epochs, engine reference %d", m.Name, target, seed, got, want)
				}
			}
			if avg := testing.AllocsPerRun(20, func() { o.PredictEpochs(target, 7) }); avg != 0 {
				t.Errorf("%s target=%g: PredictEpochs allocates %.1f/op, want 0", m.Name, target, avg)
			}
		}
	}
	if curves == 0 {
		t.Fatal("no curve model among the profiles")
	}
}
