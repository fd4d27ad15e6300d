package predictor

import (
	"math"
	"testing"
)

func obsCurve(e int) float64 { return 1/(0.05*float64(e)+1) + 0.3 }

// TestFixedWindowRetainsRecent: once the bounded history fills, the
// predictor holds exactly the last w observations in chronological order.
func TestFixedWindowRetainsRecent(t *testing.T) {
	o := NewOnline()
	o.setFixedWindow(8)
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
	o.setFixedWindow(4)
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

// TestFixedWindowMatchesExplicitEpochs drives the fixed window through
// epoch sequences that stay on the ramp and ones that leave it, against a
// reference holding the last w (epoch, loss) pairs in explicit slices and
// fitted by a fitter with the same tuning: xs, ys, Curve bits and
// PredictTotalEpochs agree after every observation, the window is a ramp
// view exactly while its epochs are consecutive and on the ramp, and
// observing one more epoch allocates nothing, on or off the ramp.
func TestFixedWindowMatchesExplicitEpochs(t *testing.T) {
	seq := func(from, to int) []int {
		var s []int
		for e := from; e <= to; e++ {
			s = append(s, e)
		}
		return s
	}
	cat := func(parts ...[]int) []int {
		var s []int
		for _, p := range parts {
			s = append(s, p...)
		}
		return s
	}
	ramp := len(epochRamp)
	for _, tc := range []struct {
		name   string
		epochs []int
		ramped bool // the window is a ramp view at the end
	}{
		{"consecutive", seq(1, 60), true},
		{"shorter than the window", seq(1, 5), true},
		{"starts late", seq(40, 90), true},
		{"gap", cat(seq(1, 20), seq(22, 40)), false},
		{"gap then refilled", cat(seq(1, 20), seq(30, 80)), false},
		{"restart at epoch 1", cat(seq(1, 25), seq(1, 30)), false},
		{"up to the ramp's end", seq(ramp-40, ramp), true},
		{"past the ramp", seq(ramp-40, ramp+30), false},
		{"wholly past the ramp", seq(4090, 4130), false},
		{"starts at epoch 0", seq(0, 30), false},
		{"wraps as decideProbe's epochs do", cat(seq(4080, 4096), seq(1, 20)), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const w = 16
			tuning := Tuning{FixedWindow: w, WarmStart: true, RefitBudget: 10}
			o := NewOnline()
			o.ApplyTuning(tuning)
			ref := NewOnline()
			ref.setWarmStart(tuning.WarmStart)
			ref.refitBudget = tuning.RefitBudget
			var xs, ys []float64
			for i, e := range tc.epochs {
				loss := obsCurve(i+1) + 0.001*float64(e%7)
				o.Observe(e, loss)
				xs, ys = append(xs, float64(e)), append(ys, loss)
				if len(xs) > w {
					xs, ys = xs[1:], ys[1:]
				}
				ref.xs, ref.ys, ref.dirty = append([]float64(nil), xs...), append([]float64(nil), ys...), true
				if len(o.xs) != len(xs) || len(o.ys) != len(ys) {
					t.Fatalf("epoch %d (step %d): window holds %d epochs and %d losses, want %d", e, i, len(o.xs), len(o.ys), len(xs))
				}
				for j := range xs {
					if o.xs[j] != xs[j] || math.Float64bits(o.ys[j]) != math.Float64bits(ys[j]) {
						t.Fatalf("epoch %d (step %d): window[%d] = (%v, %v), want (%v, %v)", e, i, j, o.xs[j], o.ys[j], xs[j], ys[j])
					}
				}
				got, gotOK := o.Curve()
				want, wantOK := ref.Curve()
				if gotOK != wantOK {
					t.Fatalf("epoch %d (step %d): Curve ok %v, reference %v", e, i, gotOK, wantOK)
				}
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("epoch %d (step %d): Curve %v, reference %v", e, i, got, want)
					}
				}
				gotE, gotOK := o.PredictTotalEpochs(0.35)
				wantE, wantOK := ref.PredictTotalEpochs(0.35)
				if gotE != wantE || gotOK != wantOK {
					t.Fatalf("epoch %d (step %d): PredictTotalEpochs %d %v, reference %d %v", e, i, gotE, gotOK, wantE, wantOK)
				}
			}
			if o.ramped != tc.ramped {
				t.Errorf("ramp view %v at the end, want %v", o.ramped, tc.ramped)
			}
			next := tc.epochs[len(tc.epochs)-1]
			if avg := testing.AllocsPerRun(20, func() {
				next++
				o.Observe(next, obsCurve(next))
			}); avg != 0 {
				t.Errorf("observing the next epoch allocates %.1f/op, want 0", avg)
			}
		})
	}
}

// TestFixedWindowMidstreamRamp: a window set over existing history is a
// ramp view only if the retained epochs are consecutive and on the ramp.
func TestFixedWindowMidstreamRamp(t *testing.T) {
	for _, tc := range []struct {
		epochs []int
		ramped bool
	}{
		{[]int{1, 2, 3, 4, 5, 6}, true},
		{[]int{1, 3, 4, 5, 6, 7}, true}, // the gap is dropped with the oldest
		{[]int{1, 2, 3, 5, 6, 7}, false},
		{[]int{1020, 1021, 1022, 1023, 1024}, true},
		{[]int{1022, 1023, 1024, 1025}, false},
	} {
		o := NewOnline()
		for _, e := range tc.epochs {
			o.Observe(e, obsCurve(e))
		}
		o.setFixedWindow(4)
		if o.ramped != tc.ramped {
			t.Errorf("history %v: ramp view %v, want %v", tc.epochs, o.ramped, tc.ramped)
		}
		for i, x := range o.xs {
			if want := tc.epochs[len(tc.epochs)-4+i]; x != float64(want) || o.ys[i] != obsCurve(want) {
				t.Errorf("history %v: window[%d] = (%v, %v), want epoch %d", tc.epochs, i, x, o.ys[i], want)
			}
		}
	}
}
