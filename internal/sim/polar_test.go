package sim

import (
	"math"
	"testing"
)

// checkPolarLanes runs polarMuls on a block holding xs (at most polarPairs
// positive finite values) and fails unless every lane equals
// math.Sqrt(-2*math.Log(x)/x) bit for bit, NaN where that is NaN.
func checkPolarLanes(t testing.TB, xs ...float64) {
	t.Helper()
	var b [polarPairs]float64
	copy(b[:], xs)
	polarMuls(&b, len(xs))
	for i, x := range xs {
		want := math.Sqrt(-2 * math.Log(x) / x)
		if got := b[i]; math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("lane %d of %d: s=%v (%#x): got %v (%#x), want %v (%#x)", i, len(xs),
				x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// FuzzPolarLanes: the multiplier kernel (AVX2 on an amd64 host that has it)
// on arbitrary positive finite s, in every lane and at every group length,
// against math.Sqrt(-2*math.Log(s)/s). The seeds sit on the kernel's edges:
// f1 == sqrt(2)/2 exactly (0x3FE6A09E667F3BCD scaled by powers of two),
// where the fold (k -= 1; f1 *= 2) still fires, and its neighbours; the
// smallest s a polar pair can give
// (2^-104), the largest below 1, subnormals and s >= 1, and one s
// (0x3FE8488B0C677204, found by search) where fusing the polynomial's last
// multiply-add, s4*(...)+L1, changes the result. Fusing any of its earlier
// steps changed none of 1.5e8 searched inputs.
func FuzzPolarLanes(f *testing.F) {
	const hSqrt2 = 0x3FE6A09E667F3BCD
	for _, e := range []uint64{0, 1, 5, 52, 103} {
		f.Add(hSqrt2-e<<52, uint8(0))
		f.Add(hSqrt2-e<<52+1, uint8(3))
		f.Add(hSqrt2-e<<52-1, uint8(6))
	}
	f.Add(math.Float64bits(0x1p-104), uint8(1))
	f.Add(math.Float64bits(math.Nextafter(1, 0)), uint8(2))
	f.Add(uint64(1), uint8(3))
	f.Add(math.Float64bits(1), uint8(4))
	f.Add(math.Float64bits(math.MaxFloat64), uint8(5))
	f.Add(uint64(0x3FE8488B0C677204), uint8(7))
	f.Fuzz(func(t *testing.T, bits uint64, lane uint8) {
		bits &^= 1 << 63 // positive
		x := math.Float64frombits(bits)
		if x == 0 || math.IsInf(x, 0) || math.IsNaN(x) {
			t.Skip("outside the kernel's domain")
		}
		xs := make([]float64, int(lane)%polarPairs+1)
		for i := range xs {
			xs[i] = 0.5 // a neighbour the lane under test must not disturb
		}
		xs[len(xs)-1] = x
		checkPolarLanes(t, xs...)
		checkPolarLanes(t, x, math.Nextafter(x, 0), math.Nextafter(x, 2), x/2, x*0.75)
	})
}

// refNormFloat64s is what NormFloat64s replaces: one NormFloat64 per slot.
func refNormFloat64s(r *Rand, dst []float64) {
	for i := range dst {
		dst[i] = r.NormFloat64()
	}
}

// TestNormFloat64sMatchesReference: at lengths 0-67 and 256, with and
// without a pending spare (a planted value, so that it must be passed on as
// is), NormFloat64s writes refNormFloat64s's bits and leaves the same
// stream behind; it then continues into a second call on the same stream.
func TestNormFloat64sMatchesReference(t *testing.T) {
	lengths := []int{256}
	for n := 0; n < 68; n++ {
		lengths = append(lengths, n)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		for _, n := range lengths {
			for _, spare := range []bool{false, true} {
				r := NewRand(seed)
				if spare {
					r.spare, r.hasSpare = -3.25, true
				}
				for round := 0; round < 2; round++ {
					ref := *r
					got, want := make([]float64, n), make([]float64, n)
					r.NormFloat64s(got)
					refNormFloat64s(&ref, want)
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("seed %d n=%d spare=%v round %d: dst[%d] = %v, reference %v",
								seed, n, spare, round, i, got[i], want[i])
						}
					}
					if !sameStream(r, &ref) {
						t.Fatalf("seed %d n=%d spare=%v round %d: stream left at %+v, reference %+v",
							seed, n, spare, round, *r, ref)
					}
				}
			}
		}
	}
}

// TestPortablePolarPath re-runs the kernel tests with the AVX2 kernel
// switched off, so an AVX2 host covers the portable path too.
func TestPortablePolarPath(t *testing.T) {
	if !useAVX2 {
		t.Skip("the portable path is the only path on this host")
	}
	useAVX2 = false
	defer func() { useAVX2 = true }()
	for _, test := range []func(*testing.T){
		TestNormFloat64sMatchesReference, TestMaxLogNormalMatchesReference, TestMaxLogNormalNearTies,
	} {
		test(t)
	}
	checkPolarLanes(t, 0x1p-104, math.Nextafter(1, 0), 0.5, math.Float64frombits(0x3FE6A09E667F3BCD))
}
