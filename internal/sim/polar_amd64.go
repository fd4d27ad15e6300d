package sim

// polarMuls replaces s[k] with sqrt(-2*ln(s[k])/s[k]) for k < n, bit for bit
// as polarMulsGo does. The AVX2 kernel works on groups of four, so it may
// overwrite s[n:] up to the next multiple of four as well.
func polarMuls(s *[polarPairs]float64, n int) {
	if !useAVX2 {
		polarMulsGo(s[:n])
		return
	}
	if n > 0 {
		polarMulsAVX2(&s[0], (n+3)&^3)
	}
}

// polarMulsAVX2 replaces s[i] with sqrt(-2*ln(s[i])/s[i]) for i < n, n a
// positive multiple of four. It is exact (equal to math.Sqrt(-2 *
// math.Log(x) / x)) for every positive finite s[i]; the polar draws give s
// in [2^-104, 1).
//
//go:noescape
func polarMulsAVX2(s *float64, n int)
