// Package fit provides small-scale nonlinear least squares (one damped
// Gauss-Newton / Levenberg-Marquardt solver, the Fitter) for the convergence
// curve used in online epoch prediction. Following Optimus [16] and the
// paper's loss-curve fitter, training loss is modeled as
//
//	l(e) = 1/(a*e + b) + c      (InverseLinear)
//
// with a > 0, b > 0: loss decreases hyperbolically toward the floor c.
package fit

import (
	"errors"
	"math"
)

// InverseLinear is the curve family l(x) = 1/(a*x + b) + c with a, b > 0;
// it is the only family the Fitter solves.
type InverseLinear struct{}

// Options tunes the solver.
type Options struct {
	MaxIter int     // default 200
	Tol     float64 // relative SSE improvement tolerance, default 1e-10
}

// ErrInsufficientData is returned when there are fewer points than params.
var ErrInsufficientData = errors.New("fit: fewer observations than parameters")

// Result carries the fitted parameters and goodness of fit.
type Result struct {
	Params []float64
	SSE    float64 // sum of squared residuals
	RMSE   float64
	Iters  int
}

// MaxSolvableX bounds what SolveForX will report as a meaningful epoch
// count. A target epsilon above the asymptote c makes 1/(target-c) overflow
// toward +Inf; anything beyond this bound is "the curve effectively never
// gets there" and must be ok=false, not a non-finite value leaked to
// callers whose contract promises a usable x.
const MaxSolvableX = 1e9

// SolveForX returns the smallest x >= 1 at which the fitted InverseLinear
// curve reaches target, or ok=false when the curve never reaches it (target
// at or below the asymptote c) or only reaches it at an absurd x (target so
// close to c that 1/(target-c) is non-finite or beyond MaxSolvableX).
func SolveForX(params []float64, target float64) (float64, bool) {
	a, b, c := params[0], params[1], params[2]
	if target <= c || a <= 0 {
		return 0, false
	}
	x := (1/(target-c) - b) / a
	if math.IsNaN(x) || math.IsInf(x, 0) || x > MaxSolvableX {
		return 0, false
	}
	if x < 1 {
		x = 1
	}
	return x, true
}
