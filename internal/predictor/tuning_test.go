package predictor

import (
	"testing"
)

func obsCurve(e int) float64 { return 1/(0.05*float64(e)+1) + 0.3 }

// TestFixedWindowRetainsRecent: once the bounded history fills, the
// predictor holds exactly the last w observations in chronological order.
func TestFixedWindowRetainsRecent(t *testing.T) {
	o := NewOnline()
	o.SetFixedWindow(8)
	for e := 1; e <= 20; e++ {
		o.Observe(e, obsCurve(e))
	}
	if o.Observations() != 8 {
		t.Fatalf("retained %d observations, want 8", o.Observations())
	}
	for i, x := range o.xs {
		if want := float64(13 + i); x != want {
			t.Errorf("xs[%d] = %v, want %v", i, x, want)
		}
		if o.ys[i] != obsCurve(13+i) {
			t.Errorf("ys[%d] mismatch", i)
		}
	}
}

// TestFixedWindowMidstream: enabling the window after observations exist
// keeps the most recent ones.
func TestFixedWindowMidstream(t *testing.T) {
	o := NewOnline()
	for e := 1; e <= 10; e++ {
		o.Observe(e, obsCurve(e))
	}
	o.SetFixedWindow(4)
	if o.Observations() != 4 || o.xs[0] != 7 {
		t.Fatalf("midstream window: got %d obs starting at %v", o.Observations(), o.xs[0])
	}
	if _, ok := o.PredictTotalEpochs(0.31); !ok {
		t.Error("prediction should still work on the retained window")
	}
}

// TestFixedWindowObserveZeroAlloc: the steady-state observe+refit+predict
// cycle under the fleet tuning must not allocate.
func TestFixedWindowObserveZeroAlloc(t *testing.T) {
	o := NewOnline()
	o.ApplyTuning(Tuning{FixedWindow: 16, WarmStart: true, RefitBudget: 10})
	for e := 1; e <= 32; e++ {
		o.Observe(e, obsCurve(e))
	}
	e := 33
	if avg := testing.AllocsPerRun(100, func() {
		o.Observe(e, obsCurve(e))
		if _, ok := o.PredictTotalEpochs(0.5); !ok {
			t.Fatal("prediction failed")
		}
		e++
	}); avg != 0 {
		t.Errorf("fleet-tuned observe+predict allocates %.2f/op, want 0", avg)
	}
}

// TestTunedPredictionStaysAccurate: warm-started, budget-limited refits
// over a bounded window must still track the curve — the amortized
// optimization converges across epochs even though each refit is capped.
func TestTunedPredictionStaysAccurate(t *testing.T) {
	exact := NewOnline()
	tuned := NewOnline()
	tuned.ApplyTuning(Tuning{FixedWindow: 32, WarmStart: true, RefitBudget: 8})
	const target = 0.32 // curve hits it around e=44
	for e := 1; e <= 40; e++ {
		exact.Observe(e, obsCurve(e))
		tuned.Observe(e, obsCurve(e))
	}
	want, ok1 := exact.PredictTotalEpochs(target)
	got, ok2 := tuned.PredictTotalEpochs(target)
	if !ok1 || !ok2 {
		t.Fatalf("predictions missing: exact=%v tuned=%v", ok1, ok2)
	}
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.15*float64(want) {
		t.Errorf("tuned prediction %d drifted from exact %d by more than 15%%", got, want)
	}
}

// TestDefaultUntouchedByTuningTypes: a default predictor never shifts its
// buffer and keeps unbounded history (the bit-identical configuration).
func TestDefaultUntouchedByTuningTypes(t *testing.T) {
	o := NewOnline()
	for e := 1; e <= 100; e++ {
		o.Observe(e, obsCurve(e))
	}
	if o.Observations() != 100 {
		t.Errorf("default predictor truncated history: %d", o.Observations())
	}
}
