package fit

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// curve is l(x) = 1/(a*x + b) + c under p = (a, b, c).
func curve(p []float64, x float64) float64 {
	return 1/(p[0]*x+p[1]) + p[2]
}

func genInverseLinear(a, b, c, noise float64, n int, seed uint64) (xs, ys []float64) {
	rng := sim.NewRand(seed)
	for e := 1; e <= n; e++ {
		x := float64(e)
		xs = append(xs, x)
		ys = append(ys, curve([]float64{a, b, c}, x)+noise*rng.NormFloat64())
	}
	return xs, ys
}

func TestSolveForX(t *testing.T) {
	p := []float64{0.2, 1.0, 0.5}
	x, ok := SolveForX(p, 0.7)
	if !ok {
		t.Fatal("SolveForX failed")
	}
	if got := curve(p, x); math.Abs(got-0.7) > 1e-9 {
		t.Errorf("Eval at solved x = %g, want 0.7", got)
	}
	if _, ok := SolveForX(p, 0.5); ok {
		t.Error("target at asymptote should be unreachable")
	}
	if _, ok := SolveForX(p, 0.3); ok {
		t.Error("target below asymptote should be unreachable")
	}
	// Targets already met at x<1 clamp to 1.
	if x, ok := SolveForX(p, 100); !ok || x != 1 {
		t.Errorf("huge target: x=%g ok=%v, want 1 true", x, ok)
	}
}

func TestSolveForXRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(ar, br, cr, tr uint16) bool {
		a := 0.01 + float64(ar)/65535
		b := 0.1 + float64(br)/65535*5
		c := float64(cr) / 65535
		target := c + 0.01 + float64(tr)/65535
		x, ok := SolveForX([]float64{a, b, c}, target)
		if !ok {
			return false
		}
		if x == 1 {
			return curve([]float64{a, b, c}, 1) <= target+1e-9
		}
		return math.Abs(curve([]float64{a, b, c}, x)-target) < 1e-6
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSolveForXDegenerateTargetNearAsymptote is the regression test for the
// (+Inf, true) leak: a target epsilon above the asymptote c makes
// 1/(target-c) explode, and the pre-fix code returned that non-finite or
// astronomically large x with ok=true, violating the "smallest x >= 1 or
// ok=false" contract.
func TestSolveForXDegenerateTargetNearAsymptote(t *testing.T) {
	// c = 0 keeps a 1e-300 gap representable (for c = 0.5 it would round
	// away below one ulp): 1/(target-c) = 1e300, an absurd finite x the
	// pre-fix code returned with ok=true.
	if x, ok := SolveForX([]float64{0.2, 1.0, 0}, 1e-300); ok {
		t.Fatalf("target=c+1e-300 solved: x=%g, want ok=false", x)
	}
	// Subnormal gap: 1/(target-c) overflows to +Inf outright.
	if x, ok := SolveForX([]float64{0.2, 1.0, 0}, 5e-324); ok {
		t.Fatalf("target=c+5e-324 solved: x=%g, want ok=false", x)
	}
	p := []float64{0.2, 1.0, 0.5}
	if x, ok := SolveForX(p, 0.5+1e-12); ok {
		// 1/(1e-12) = 1e12 > MaxSolvableX: finite but absurd.
		t.Fatalf("target=c+1e-12 solved: x=%g, want ok=false", x)
	}
	// Just inside the bound stays solvable and finite.
	x, ok := SolveForX(p, 0.5+1e-6)
	if !ok {
		t.Fatal("reasonable target near asymptote must stay solvable")
	}
	if math.IsInf(x, 0) || math.IsNaN(x) || x > MaxSolvableX || x < 1 {
		t.Fatalf("solved x=%g outside (1, MaxSolvableX]", x)
	}
}

// TestSolveForXAlwaysFiniteProperty: for any parameters and target, SolveForX
// either fails or returns a finite x in [1, MaxSolvableX].
func TestSolveForXAlwaysFiniteProperty(t *testing.T) {
	if err := quick.Check(func(ar, br, cr uint16, exp uint8) bool {
		a := float64(ar) / 65535
		b := float64(br) / 65535 * 5
		c := float64(cr) / 65535
		// Sweep the target gap across 40 orders of magnitude down to
		// denormal range.
		gap := math.Pow(10, -float64(exp%40))
		x, ok := SolveForX([]float64{a, b, c}, c+gap)
		if !ok {
			return true
		}
		return !math.IsNaN(x) && !math.IsInf(x, 0) && x >= 1 && x <= MaxSolvableX
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
