package fit

import (
	"fmt"
	"math"

	"repro/internal/cpufeat"
)

// fitterParams is the parameter count of the InverseLinear curve (a, b, c):
// the normal-equation system is always 3x3 and lives in arrays.
const fitterParams = 3

// Fitter is the reusable Levenberg-Marquardt solver for the InverseLinear
// curve. It has two kernels: normalPass, one pass over the data that gives
// the sum of squared residuals at a point together with the normal
// equations there, and solveDamped, which keeps the twelve entries of the
// augmented 3×4 system in locals. A Fitter holds only what outlives a Fit
// call: the result array Result.Params aliases and the warm start. The
// iteration's parameters, trial point, step and the normal equations at
// both points are locals of Fit that stay on the stack, so a Fitter is 56
// bytes and a steady-state refit performs zero heap allocations — the
// property the per-epoch Algorithm-2 decision loop is gated on
// (fit.TestFitterZeroAlloc).
//
// A cold Fit's starting guess, damping schedule, elimination pivoting and
// float arithmetic order are pinned bit for bit by testdata/cold.bits
// (TestFitterColdBitIdentical); every paper table depends on them. The warm
// path is held to the same bits by refFitter, the solver as it stood
// before its kernels moved into locals (TestFitterMatchesReference).
//
// With warm start enabled (SetWarmStart), each Fit seeds the iteration from
// the previous call's converged parameters instead of the data guess.
// Online refits move the data by one observation per epoch, so the
// previous optimum is an excellent start and steady-state refits converge
// in a handful of LM iterations instead of dozens. Warm results may differ
// in the last bits from a cold fit (the iteration takes a different path to
// the optimum), so warm start is opt-in: callers that must reproduce
// historical cold-fit outputs leave it off.
//
// A Fitter is not safe for concurrent use; give each goroutine its own.
type Fitter struct {
	// out backs Result.Params: valid until the next Fit call.
	out [fitterParams]float64

	warm    bool
	hasPrev bool
	prev    [fitterParams]float64
}

// normal is J^T J and J^T r at one point of the parameter space. The
// layout, twelve float64 in a row, is the one normalPassAVX writes.
type normal struct {
	jtj [fitterParams][fitterParams]float64
	jtr [fitterParams]float64
}

// NewFitter returns a reusable solver for the InverseLinear curve. The
// error is always nil: the signature is the one cmd/bench's probes compile
// against.
func NewFitter(InverseLinear) (*Fitter, error) {
	return &Fitter{}, nil
}

// SetWarmStart toggles seeding each fit from the previous result. Turning
// it off also forgets any stored parameters.
func (f *Fitter) SetWarmStart(on bool) {
	f.warm = on
	if !on {
		f.hasPrev = false
	}
}

// Fit solves min_params sum_i (model(x_i) - y_i)^2 by Levenberg-Marquardt
// without heap allocation. The returned Result.Params aliases Fitter-owned
// storage and is only valid until the next Fit call — copy it to keep it.
func (f *Fitter) Fit(xs, ys []float64, opts Options) (Result, error) {
	if len(xs) != len(ys) {
		return Result{}, fmt.Errorf("fit: len(xs)=%d != len(ys)=%d", len(xs), len(ys))
	}
	const p = fitterParams
	n := len(xs)
	if n < p {
		return Result{}, fmt.Errorf("%w: %d < %d", ErrInsufficientData, n, p)
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 200
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-10
	}

	var params, trial, delta [fitterParams]float64
	if f.warm && f.hasPrev {
		params = f.prev
	} else {
		params = dataGuess(xs, ys)
	}
	clamp(&params)
	// cur is the normal equations at params, next those at trial: an
	// accepted trial's pass is the next iteration's normal equations.
	var ne [2]normal
	cur, next := &ne[0], &ne[1]
	sse := normalPass(&params, xs, ys, cur)
	lambda := 1e-3
	iters := 0

	for ; iters < opts.MaxIter; iters++ {
		improved := false
		for attempt := 0; attempt < 20; attempt++ {
			if !solveDamped(cur, lambda, &delta) {
				lambda *= 10
				continue
			}
			for i := range trial {
				trial[i] = params[i] - delta[i]
			}
			clamp(&trial)
			trialSSE := normalPass(&trial, xs, ys, next)
			if trialSSE < sse {
				rel := (sse - trialSSE) / (sse + 1e-30)
				params, sse = trial, trialSSE
				cur, next = next, cur
				lambda = max(lambda/3, 1e-12)
				improved = true
				if rel < opts.Tol {
					iters++
					return f.finish(&params, sse, n, iters), nil
				}
				break
			}
			lambda *= 10
			if lambda > 1e12 {
				break
			}
		}
		if !improved {
			break
		}
	}
	return f.finish(&params, sse, n, iters), nil
}

// dataGuess is the cold starting point: assume the last observation is
// near the floor and the first sets the initial offset.
func dataGuess(xs, ys []float64) [fitterParams]float64 {
	first, last := ys[0], ys[len(ys)-1]
	c := last - 0.1*math.Abs(first-last) - 1e-3
	b := 1.0
	if diff := first - c; diff > 1e-9 {
		b = 1 / diff
	}
	a := 0.1
	if n := len(xs); n > 1 {
		if diff := ys[n-1] - c; diff > 1e-9 && xs[n-1] > xs[0] {
			a = (1/diff - b) / (xs[n-1] - xs[0])
			if a <= 0 {
				a = 0.1
			}
		}
	}
	return [fitterParams]float64{a, b, c}
}

// useAVX picks the AVX normal-equation kernel on amd64 (cpufeat.AVX);
// elsewhere it is false and unread. Only tests write it, to run the
// portable path on an AVX host.
var useAVX = cpufeat.AVX

// normalPassGo returns the sum of squared residuals of the curve under p
// over the data and sets ne to J^T J and J^T r there. den = a*x + b is the
// subexpression the curve value 1/den + c and its Jacobian row (g0, g1, 1)
// = (-x/den², -1/den², 1) share. Each sum runs over the data in order, as
// a [3][3] accumulation of the lower triangle would; the products with the
// Jacobian's exact 1 are left out and s22 is the point count, which
// changes no bit. It is the non-amd64 path and the reference normalPassAVX
// is held to bit for bit.
func normalPassGo(p *[fitterParams]float64, xs, ys []float64, ne *normal) float64 {
	a, b, c := p[0], p[1], p[2]
	ys = ys[:len(xs)]
	var sse, s00, s10, s11, s20, s21, r0, r1, r2 float64
	for k, x := range xs {
		den := a*x + b
		g1 := -1 / (den * den)
		g0 := g1 * x
		r := 1/den + c - ys[k]
		sse += r * r
		r0 += g0 * r
		r1 += g1 * r
		r2 += r
		s00 += g0 * g0
		s10 += g1 * g0
		s11 += g1 * g1
		s20 += g0
		s21 += g1
	}
	s22 := float64(len(xs))
	ne.jtj = [fitterParams][fitterParams]float64{
		{s00, s10, s20},
		{s10, s11, s21},
		{s20, s21, s22},
	}
	ne.jtr = [fitterParams]float64{r0, r1, r2}
	return sse
}

// clamp projects params back into the curve's valid region a, b > 0.
func clamp(params *[fitterParams]float64) {
	if params[0] < 1e-9 {
		params[0] = 1e-9
	}
	if params[1] < 1e-9 {
		params[1] = 1e-9
	}
}

// finish records params as the result and, warm, as the next start.
func (f *Fitter) finish(params *[fitterParams]float64, sse float64, n, iters int) Result {
	f.out = *params
	if f.warm {
		f.prev = *params
		f.hasPrev = true
	}
	return Result{Params: f.out[:], SSE: sse, RMSE: math.Sqrt(sse / float64(n)), Iters: iters}
}

// damp is a diagonal entry v of J^T J under damping lambda: v + v*lambda,
// or v + lambda where that product is 0.
func damp(v, lambda float64) float64 {
	d := v * lambda
	if d == 0 {
		d = lambda
	}
	return v + d
}

// solveDamped solves (jtj + lambda*diag(jtj)) delta = jtr of ne into
// *delta by Gaussian elimination with partial pivoting over the augmented
// 3×4 system, held in twelve locals (row i is mi0 mi1 mi2 | mi3); false
// when the system is singular or the step is not finite. The pivot of a column is the first
// row with the strictly largest magnitude, as a row-by-row scan finds it.
func solveDamped(ne *normal, lambda float64, delta *[fitterParams]float64) bool {
	j, r := &ne.jtj, &ne.jtr
	m00, m01, m02, m03 := damp(j[0][0], lambda), j[0][1], j[0][2], r[0]
	m10, m11, m12, m13 := j[1][0], damp(j[1][1], lambda), j[1][2], r[1]
	m20, m21, m22, m23 := j[2][0], j[2][1], damp(j[2][2], lambda), r[2]

	pivot, mag := 0, math.Abs(m00)
	if v := math.Abs(m10); v > mag {
		pivot, mag = 1, v
	}
	if v := math.Abs(m20); v > mag {
		pivot, mag = 2, v
	}
	if mag < 1e-300 {
		return false
	}
	switch pivot {
	case 1:
		m00, m01, m02, m03, m10, m11, m12, m13 = m10, m11, m12, m13, m00, m01, m02, m03
	case 2:
		m00, m01, m02, m03, m20, m21, m22, m23 = m20, m21, m22, m23, m00, m01, m02, m03
	}
	fr := m10 / m00
	m11 -= fr * m01
	m12 -= fr * m02
	m13 -= fr * m03
	fr = m20 / m00
	m21 -= fr * m01
	m22 -= fr * m02
	m23 -= fr * m03

	if math.Abs(m21) > math.Abs(m11) {
		m11, m12, m13, m21, m22, m23 = m21, m22, m23, m11, m12, m13
	}
	if math.Abs(m11) < 1e-300 {
		return false
	}
	fr = m21 / m11
	m22 -= fr * m12
	m23 -= fr * m13

	if math.Abs(m22) < 1e-300 {
		return false
	}
	d2 := m23 / m22
	d1 := (m13 - m12*d2) / m11
	d0 := (m03 - m01*d1 - m02*d2) / m00
	*delta = [fitterParams]float64{d0, d1, d2}
	for _, v := range delta {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
