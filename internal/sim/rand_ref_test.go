package sim

import (
	"math"
	"slices"
	"testing"
)

// refGroundTruth is the straggler draw MaxLogNormal replaces, verbatim: the
// slowest of n log-normal functions, one LogNormal (one Exp) per function.
func refGroundTruth(rng *Rand, n int, sigma float64) float64 {
	worst := 0.0
	for i := 0; i < n; i++ {
		if f := rng.LogNormal(0, sigma); f > worst {
			worst = f
		}
	}
	return worst
}

// sameStream reports whether a and b draw the same values from here on. A
// spare that is not pending is dead state and may differ; a pending one is
// compared by bits, so a planted NaN equals itself.
func sameStream(a, b *Rand) bool {
	return a.state == b.state && a.hasSpare == b.hasSpare &&
		(!a.hasSpare || math.Float64bits(a.spare) == math.Float64bits(b.spare))
}

// checkMaxLogNormal runs MaxLogNormal and refGroundTruth on two copies of r,
// fails unless both the maximum's bits and the streams left behind agree, and
// moves r on to where both left it.
func checkMaxLogNormal(t testing.TB, r *Rand, n int, sigma float64) {
	t.Helper()
	ref := *r
	want := refGroundTruth(&ref, n, sigma)
	got := r.MaxLogNormal(n, sigma)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("n=%d sigma=%g: MaxLogNormal = %v (%#x), reference %v (%#x)",
			n, sigma, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if !sameStream(r, &ref) {
		t.Fatalf("n=%d sigma=%g: stream left at %+v, reference %+v", n, sigma, *r, ref)
	}
}

// treeNs are the group sizes the tree draws stragglers for: cost.DefaultGrid's
// Ns, plus the small and odd sizes the spare bookkeeping turns on.
var treeNs = []int{0, 1, 2, 3, 4, 5, 7, 10, 15, 20, 25, 30, 40, 50, 75, 100, 150, 200, 201}

// TestMaxLogNormalMatchesReference: 10^6 epochs in total at
// trainer.DefaultNoise's sigma, cycling through the group sizes (about 52.6k
// epochs each), then 300 rounds at other sigmas. Each epoch continues the
// previous one's stream, as the trainer's "trainer.straggler" stream does, so
// a spare left by an odd n is consumed by the next epoch.
func TestMaxLogNormalMatchesReference(t *testing.T) {
	epochs := map[float64]int{0.05: 1_000_000 / len(treeNs)}
	for _, sigma := range []float64{1e-300, 1e-9, 0.01, 0.2, 1, 3, maxSigma} {
		epochs[sigma] = 300
	}
	for sigma, count := range epochs {
		r := NewRand(math.Float64bits(sigma))
		for e := 0; e < count; e++ {
			for _, n := range treeNs {
				checkMaxLogNormal(t, r, n, sigma)
			}
		}
	}
}

// TestMaxLogNormalNearTies plants, as the pending spare, a deviate within a
// few ulps of the largest one the next n-1 draws produce: above, equal and
// below it, and one expTieTol away. MaxLogNormal must then take the Exp of
// both and keep the larger, as the reference does.
func TestMaxLogNormalNearTies(t *testing.T) {
	const sigma = 0.05
	for seed := uint64(1); seed <= 200; seed++ {
		for _, n := range []int{2, 3, 8, 101, 200} {
			r := NewRand(seed)
			r.NormFloat64() // leave a spare pending, then overwrite it
			probe := *r
			probe.hasSpare = false
			top := math.Inf(-1)
			for i := 1; i < n; i++ {
				top = max(top, probe.NormFloat64())
			}
			tol := expTieTol / sigma
			for _, z := range []float64{
				top, math.Nextafter(top, 0), math.Nextafter(top, 10),
				top - 3e-16, top + 3e-16, top - tol, top + tol, top - 2*tol, top + 2*tol,
			} {
				planted := *r
				planted.spare = z
				checkMaxLogNormal(t, &planted, n, sigma)
			}
		}
	}
}

// TestMaxExpKeepsLargestExp feeds maxExp crafted runs of exponents packed
// within a few ulps and within expTieTol of each other, in rising, falling
// and interleaved order: it must return max math.Exp(x) bit for bit. The
// last two starts are inputs where math.Exp on amd64 is not monotone:
// Exp(x) > Exp(Nextafter(x, +Inf)), so keeping only the largest x would
// lose the maximum.
func TestMaxExpKeepsLargestExp(t *testing.T) {
	for _, m0 := range []float64{-600, -1, -0x1p-40, 0, 0x1p-40, 0.1, 1, 2.5, 600,
		math.Float64frombits(0x3fdbf767682d4680), math.Float64frombits(0xbfd086bacd538a44)} {
		// ulps peaks one ulp above m0; wide adds values up to expTieTol
		// above that.
		ulps := []float64{m0 - 2*expTieTol, m0 - expTieTol, m0 - expTieTol/3,
			m0, math.Nextafter(m0, math.Inf(1))}
		wide := append(slices.Clone(ulps), m0+expTieTol/2, m0+expTieTol)
		for _, xs := range [][]float64{ulps, wide} {
			rev := slices.Clone(xs)
			slices.Reverse(rev)
			for _, order := range [][]float64{xs, rev, interleaved(xs)} {
				m := maxExp{best: math.Inf(-1)}
				want := 0.0
				for _, x := range order {
					m.add(x)
					want = max(want, math.Exp(x))
				}
				if got := m.result(); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("m0=%v order %v: maxExp = %v, max Exp = %v", m0, order, got, want)
				}
			}
		}
	}
}

// interleaved alternates from both ends: the maximum moves up and down.
func interleaved(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for i, j := 0, len(xs)-1; i <= j; i, j = i+1, j-1 {
		out = append(out, xs[i])
		if i != j {
			out = append(out, xs[j])
		}
	}
	return out
}

// TestMaxLogNormalRejectsSigma: a sigma outside (0, maxSigma] is a caller
// bug, refused with a panic as Intn refuses n <= 0.
func TestMaxLogNormalRejectsSigma(t *testing.T) {
	for _, sigma := range []float64{0, -0.05, math.Nextafter(maxSigma, math.Inf(1)),
		math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MaxLogNormal(5, %v) did not panic", sigma)
				}
			}()
			NewRand(1).MaxLogNormal(5, sigma)
		}()
	}
}

// FuzzMaxLogNormal: any seed, group size, sigma MaxLogNormal accepts and
// planted spare, compared with the reference loop bit for bit.
func FuzzMaxLogNormal(f *testing.F) {
	f.Add(uint64(1), uint16(200), 0.05, 0.0, false)
	f.Add(uint64(2), uint16(7), 0.05, 2.9, true)
	f.Add(uint64(3), uint16(3), float64(maxSigma), -12.0, true)
	f.Add(uint64(4), uint16(64), 1e-300, 1.0, true)
	f.Add(uint64(6), uint16(9), 0.2, math.Inf(1), true)
	f.Add(uint64(7), uint16(9), 0.2, math.NaN(), true)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, sigma, spare float64, hasSpare bool) {
		if !(sigma > 0 && sigma <= maxSigma) {
			t.Skip("sigma outside what MaxLogNormal accepts")
		}
		r := NewRand(seed)
		r.spare, r.hasSpare = spare, hasSpare
		checkMaxLogNormal(t, r, int(n%1024), sigma)
		checkMaxLogNormal(t, r, int(n%7), sigma)
	})
}

// TestMaxLogNormalZeroAlloc: the straggler draw runs once per BSP epoch.
func TestMaxLogNormalZeroAlloc(t *testing.T) {
	r := NewRand(1)
	if allocs := testing.AllocsPerRun(1000, func() { r.MaxLogNormal(75, 0.05) }); allocs != 0 {
		t.Errorf("MaxLogNormal allocates %.1f times per call, want 0", allocs)
	}
}

// TestNormFloat64sZeroAlloc: the batch draws into the caller's slice and a
// block on the stack.
func TestNormFloat64sZeroAlloc(t *testing.T) {
	r := NewRand(1)
	dst := make([]float64, 257)
	if allocs := testing.AllocsPerRun(1000, func() { r.NormFloat64s(dst) }); allocs != 0 {
		t.Errorf("NormFloat64s allocates %.1f times per call, want 0", allocs)
	}
}
