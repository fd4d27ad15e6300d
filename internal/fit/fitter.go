package fit

import (
	"fmt"
	"math"
)

// fitterParams is the parameter count of the InverseLinear curve (a, b, c):
// the normal-equation system is always 3x3 and lives in arrays.
const fitterParams = 3

// Fitter is the reusable Levenberg-Marquardt solver for the InverseLinear
// curve. It holds all solver scratch (Jacobian row, normal equations,
// augmented elimination matrix, trial point) in fixed-size arrays, so a
// steady-state refit performs zero heap allocations — the property the
// per-epoch Algorithm-2 decision loop is gated on (fit.TestFitterZeroAlloc).
//
// A cold Fit's starting guess, damping schedule, elimination pivoting and
// float arithmetic order are pinned bit for bit by testdata/cold.bits
// (TestFitterColdBitIdentical); every paper table depends on them.
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
	// Solver scratch leads the struct: buildNormal's accumulation loop
	// measures ~4% slower (BenchmarkFitterWarm) with the warm-start state
	// laid out ahead of it.
	params, trial, jac, jtr, delta [fitterParams]float64
	jtj                            [fitterParams][fitterParams]float64
	aug                            [fitterParams][fitterParams + 1]float64

	// out backs Result.Params: valid until the next Fit call.
	out [fitterParams]float64

	warm    bool
	hasPrev bool
	prev    [fitterParams]float64
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

	if f.warm && f.hasPrev {
		f.params = f.prev
	} else {
		f.params = dataGuess(xs, ys)
	}
	f.clamp(&f.params)
	sse := f.sumSquares(&f.params, xs, ys)
	lambda := 1e-3
	iters := 0

	for ; iters < opts.MaxIter; iters++ {
		// Build normal equations J^T J and J^T r.
		for i := range f.jtj {
			for j := range f.jtj[i] {
				f.jtj[i][j] = 0
			}
			f.jtr[i] = 0
		}
		f.buildNormal(xs, ys)
		for i := 0; i < p; i++ {
			for j := i + 1; j < p; j++ {
				f.jtj[i][j] = f.jtj[j][i]
			}
		}

		improved := false
		for attempt := 0; attempt < 20; attempt++ {
			if !f.solveDamped(lambda) {
				lambda *= 10
				continue
			}
			for i := range f.trial {
				f.trial[i] = f.params[i] - f.delta[i]
			}
			f.clamp(&f.trial)
			trialSSE := f.sumSquares(&f.trial, xs, ys)
			if trialSSE < sse {
				rel := (sse - trialSSE) / (sse + 1e-30)
				f.params, sse = f.trial, trialSSE
				lambda = math.Max(lambda/3, 1e-12)
				improved = true
				if rel < opts.Tol {
					iters++
					return f.finish(sse, n, iters), nil
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
	return f.finish(sse, n, iters), nil
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

// buildNormal accumulates J^T J (lower triangle) and J^T r over the data.
// den = a*x + b is the subexpression the curve value 1/den + c and its
// Jacobian row (-x/den², -1/den², 1) share.
func (f *Fitter) buildNormal(xs, ys []float64) {
	const p = fitterParams
	n := len(xs)
	a, b, c := f.params[0], f.params[1], f.params[2]
	for k := 0; k < n; k++ {
		x := xs[k]
		den := a*x + b
		inv2 := -1 / (den * den)
		f.jac[0], f.jac[1], f.jac[2] = inv2*x, inv2, 1
		r := 1/den + c - ys[k]
		for i := 0; i < p; i++ {
			f.jtr[i] += f.jac[i] * r
			for j := 0; j <= i; j++ {
				f.jtj[i][j] += f.jac[i] * f.jac[j]
			}
		}
	}
}

// sumSquares is the sum of squared residuals of the curve under params.
func (f *Fitter) sumSquares(params *[fitterParams]float64, xs, ys []float64) float64 {
	a, b, c := params[0], params[1], params[2]
	var s float64
	for i := range xs {
		r := 1/(a*xs[i]+b) + c - ys[i]
		s += r * r
	}
	return s
}

// clamp projects params back into the curve's valid region a, b > 0.
func (f *Fitter) clamp(params *[fitterParams]float64) {
	if params[0] < 1e-9 {
		params[0] = 1e-9
	}
	if params[1] < 1e-9 {
		params[1] = 1e-9
	}
}

func (f *Fitter) finish(sse float64, n, iters int) Result {
	f.out = f.params
	if f.warm {
		f.prev = f.params
		f.hasPrev = true
	}
	return Result{Params: f.out[:], SSE: sse, RMSE: math.Sqrt(sse / float64(n)), Iters: iters}
}

// solveDamped solves (jtj + lambda*diag(jtj)) delta = jtr into f.delta by
// Gaussian elimination with partial pivoting over the [3][4] augmented
// matrix; false when the system is singular.
func (f *Fitter) solveDamped(lambda float64) bool {
	const p = fitterParams
	m := &f.aug
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			m[i][j] = f.jtj[i][j]
		}
		d := f.jtj[i][i] * lambda
		if d == 0 {
			d = lambda
		}
		m[i][i] += d
		m[i][p] = f.jtr[i]
	}
	for col := 0; col < p; col++ {
		pivot := col
		for r := col + 1; r < p; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-300 {
			return false
		}
		m[col], m[pivot] = m[pivot], m[col]
		for r := col + 1; r < p; r++ {
			fr := m[r][col] / m[col][col]
			for c := col; c <= p; c++ {
				m[r][c] -= fr * m[col][c]
			}
		}
	}
	for i := p - 1; i >= 0; i-- {
		s := m[i][p]
		for j := i + 1; j < p; j++ {
			s -= m[i][j] * f.delta[j]
		}
		f.delta[i] = s / m[i][i]
	}
	for _, v := range f.delta {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
