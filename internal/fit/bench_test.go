package fit

import (
	"fmt"
	"testing"
)

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

// BenchmarkFitterFleetWindow measures macro-fleet's refits as one
// controller makes them: warm start, at most 10 LM iterations, and a window
// that grows by one observation per call from 4 points (predictor.MinPoints)
// to fleetWindow and then slides. A cycle is 29 growing and 2 sliding fits,
// mean window 18.9 (fleet's refits average 16.8 points), and like a new
// controller it starts from the data guess.
func BenchmarkFitterFleetWindow(b *testing.B) {
	const minPoints, slides = 4, 2
	xs, ys := genInverseLinear(0.2, 1.0, 0.5, 0.02, fleetWindow+slides, 1)
	var windows [][2]int
	for k := minPoints; k <= fleetWindow; k++ {
		windows = append(windows, [2]int{0, k})
	}
	for lo := 1; lo <= slides; lo++ {
		windows = append(windows, [2]int{lo, lo + fleetWindow})
	}
	f := newFitter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := windows[i%len(windows)]
		if w[1] == minPoints {
			f.SetWarmStart(false)
			f.SetWarmStart(true)
		}
		if _, err := f.Fit(xs[w[0]:w[1]], ys[w[0]:w[1]], fleetOptions); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNormalPass measures one normal-equation pass as the LM loop
// sees it, each pass's parameters depending on the previous pass's SSE:
// "kernel" is normalPass (AVX on an AVX host), "go" the Go loop.
func BenchmarkNormalPass(b *testing.B) {
	for _, n := range []int{17, 40} {
		xs, ys := genInverseLinear(0.2, 1.0, 0.5, 0.02, n, 1)
		for _, path := range []struct {
			name string
			pass func(*[fitterParams]float64, []float64, []float64, *normal) float64
		}{{"kernel", normalPass}, {"go", normalPassGo}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, path.name), func(b *testing.B) {
				p := [fitterParams]float64{0.2, 1.0, 0.5}
				var ne normal
				for i := 0; i < b.N; i++ {
					sse := path.pass(&p, xs, ys, &ne)
					p[2] = 0.5 + sse*0
				}
			})
		}
	}
}
