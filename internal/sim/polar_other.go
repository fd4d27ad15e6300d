//go:build !amd64

package sim

// Without the AVX2 kernel the multipliers are the portable Go loop.

func polarMuls(s *[polarPairs]float64, n int) { polarMulsGo(s[:n]) }
