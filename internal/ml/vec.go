package ml

import (
	"math"

	"repro/internal/cpufeat"
)

// The vector kernels below are loop-structured for speed (4-way unrolling
// with explicit bounds-check elimination) but deliberately preserve the
// exact left-to-right summation order of the naive loops: every accumulator
// chain folds elements in index order, so results are bit-identical to the
// straightforward implementation and experiment outputs stay stable.
//
// The row kernels the objectives spend their time in, dot8, dot8x2 (dot8
// against two weight vectors in one pass over the rows) and axpy4, have an
// AVX form on amd64 (vec_amd64.s) that keeps every lane's multiply and add
// in the same order; dot8Go and axpy4Go below are the portable path and the
// reference the AVX form is tested against bit for bit (dot8x2's is dot8Go
// once per weight vector).

// useAVX picks the AVX row kernels on amd64 (cpufeat.AVX); elsewhere it is
// false and unread. Only tests write it, to run the portable path on an AVX
// host.
var useAVX = cpufeat.AVX

// Dot returns the inner product of a and b; the slices must have equal
// length. A b shorter than a panics at the reslice: a matrix row's capacity
// ends with the row (dataset.Matrix.Row), so weights longer than a row
// panic instead of reading into the next one.
func Dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s += a[i] * b[i]
		s += a[i+1] * b[i+1]
		s += a[i+2] * b[i+2]
		s += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// dot8Go sets d[k] = Dot(w, rows[k]) for every k < n (n <= 8), four rows
// at a time: rows n..7 up to the next multiple of four are computed too, so
// they must hold rows of len(w) as well (the caller pads with a real row).
func dot8Go(w []float64, rows *[8][]float64, n int, d *[8]float64) {
	for k := 0; k < n; k += 4 {
		d[k], d[k+1], d[k+2], d[k+3] = dot4(w, rows[k], rows[k+1], rows[k+2], rows[k+3])
	}
}

// dot4 returns the four inner products of w against r0..r3 in one pass.
// Each product uses its own accumulator folded in index order, so every
// result is bit-identical to Dot(w, rK); interleaving the four independent
// chains hides the floating-point add latency a single dot product is
// bound by.
func dot4(w, r0, r1, r2, r3 []float64) (s0, s1, s2, s3 float64) {
	n := len(w)
	r0, r1, r2, r3 = r0[:n], r1[:n], r2[:n], r3[:n]
	for i, v := range w {
		s0 += v * r0[i]
		s1 += v * r1[i]
		s2 += v * r2[i]
		s3 += v * r3[i]
	}
	return
}

// Axpy computes y += alpha * x in place.
func Axpy(alpha float64, x, y []float64) {
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// axpy4Go computes y += a0*x0 + a1*x1 + a2*x2 + a3*x3 in one pass. Per
// element the four contributions are added in x0..x3 order, matching four
// sequential Axpy calls bit for bit.
func axpy4Go(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	n := len(y)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	for i := range y {
		v := y[i]
		v += a0 * x0[i]
		v += a1 * x1[i]
		v += a2 * x2[i]
		v += a3 * x3[i]
		y[i] = v
	}
}

// Zero clears x in place.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Add computes y += x element-wise in place.
func Add(x, y []float64) {
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += x[i]
		y[i+1] += x[i+1]
		y[i+2] += x[i+2]
		y[i+3] += x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += x[i]
	}
}

// Sigmoid returns 1/(1+e^-z), computed stably for large |z|.
func Sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Log1pExp returns log(1 + e^z) without overflow.
func Log1pExp(z float64) float64 {
	if z > 30 {
		return z
	}
	if z < -30 {
		return math.Exp(z)
	}
	return math.Log1p(math.Exp(z))
}
