package fit

import "testing"

// BenchmarkFitterCold measures a from-the-data-guess fit of a 40-point
// noisy curve.
func BenchmarkFitterCold(b *testing.B) {
	xs, ys := genInverseLinear(0.2, 1.0, 0.5, 0.02, 40, 1)
	f := newFitter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Fit(xs, ys, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitterWarm measures the steady-state online refit: same data
// window shifting by one observation per call, seeded from the previous
// optimum.
func BenchmarkFitterWarm(b *testing.B) {
	xs, ys := genInverseLinear(0.2, 1.0, 0.5, 0.02, 136, 1)
	f := newFitter(b)
	f.SetWarmStart(true)
	const w = 40
	if _, err := f.Fit(xs[:w], ys[:w], Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i + 1) % (len(xs) - w)
		if _, err := f.Fit(xs[lo:lo+w], ys[lo:lo+w], Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitterFleet measures the refit macro-fleet runs: a 32-point
// window sliding by one observation per call, warm start, at most 10 LM
// iterations (fleetWindow, fleetOptions).
func BenchmarkFitterFleet(b *testing.B) {
	xs, ys := genInverseLinear(0.2, 1.0, 0.5, 0.02, 128, 1)
	f := newFitter(b)
	f.SetWarmStart(true)
	if _, err := f.Fit(xs[:fleetWindow], ys[:fleetWindow], fleetOptions); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i + 1) % (len(xs) - fleetWindow)
		if _, err := f.Fit(xs[lo:lo+fleetWindow], ys[lo:lo+fleetWindow], fleetOptions); err != nil {
			b.Fatal(err)
		}
	}
}
