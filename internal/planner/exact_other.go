//go:build !amd64

package planner

// Without the AVX kernels the DP's sweeps are the portable Go loops.

func minTwo(row, v1, v2 []float64) { minTwoGo(row, v1, v2) }

func minPlus(dst, src, v1, v2 []float64, warm, cold float64) {
	minPlusGo(dst, src, v1, v2, warm, cold)
}
