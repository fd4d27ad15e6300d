//go:build !amd64

package ml

// Without the AVX kernels the row kernels are the portable Go loops.

func dot8(w []float64, rows *[8][]float64, n int, d *[8]float64) { dot8Go(w, rows, n, d) }

func dot8x2(w, v []float64, rows *[8][]float64, n int, d, e *[8]float64) {
	dot8Go(w, rows, n, d)
	dot8Go(v, rows, n, e)
}

func axpy4(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	axpy4Go(a0, a1, a2, a3, x0, x1, x2, x3, y)
}
