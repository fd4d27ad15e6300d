package fit

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/sim"
)

func newFitter(t testing.TB) *Fitter {
	t.Helper()
	f, err := NewFitter(InverseLinear{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// coldBits reads testdata/cold.bits: per key, the result of a cold fit as
// the deleted slice-based solver produced it at the parent commit.
func coldBits(t *testing.T) map[string]Result {
	t.Helper()
	file, err := os.Open("testdata/cold.bits")
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	refs := map[string]Result{}
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var key string
		var bits [5]uint64
		var r Result
		if _, err := fmt.Sscanf(line, "%s %x %x %x %x %x %d", &key, &bits[0], &bits[1], &bits[2], &bits[3], &bits[4], &r.Iters); err != nil {
			t.Fatalf("cold.bits: %q: %v", line, err)
		}
		r.Params = []float64{math.Float64frombits(bits[0]), math.Float64frombits(bits[1]), math.Float64frombits(bits[2])}
		r.SSE, r.RMSE = math.Float64frombits(bits[3]), math.Float64frombits(bits[4])
		refs[key] = r
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return refs
}

// requireCold fails unless got equals the pinned cold fit for key bit for
// bit: parameters, SSE, RMSE and iteration count.
func requireCold(t *testing.T, refs map[string]Result, key string, got Result) {
	t.Helper()
	want, ok := refs[key]
	if !ok {
		t.Fatalf("cold.bits has no entry %q", key)
	}
	requireSameResult(t, key, want, got)
}

// fitterDatasets builds a diverse corpus of observation sets: clean curves,
// noisy curves, short series, plateaus, random walks — everything the
// online predictor can throw at the solver, including data that exercises
// the failed-attempt and singular-system paths.
func fitterDatasets() (names []string, sets [][2][]float64) {
	add := func(name string, xs, ys []float64) {
		names = append(names, name)
		sets = append(sets, [2][]float64{xs, ys})
	}
	for seed := uint64(1); seed <= 6; seed++ {
		xs, ys := genInverseLinear(0.05+0.1*float64(seed), 0.5+0.3*float64(seed), 0.2+0.1*float64(seed), 0.02, 10+int(seed)*7, seed)
		add("noisy", xs, ys)
	}
	xs, ys := genInverseLinear(0.3, 0.8, 0.5, 0, 30, 1)
	add("clean", xs, ys)
	add("minimal", []float64{1, 2, 3}, []float64{1, 0.8, 0.7})
	add("plateau", []float64{1, 2, 3, 4, 5, 6}, []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5})
	add("ascending", []float64{1, 2, 3, 4, 5}, []float64{0.1, 0.2, 0.4, 0.8, 1.6})
	rng := sim.NewRand(99)
	var wx, wy []float64
	v := 1.0
	for e := 1; e <= 40; e++ {
		v += 0.1 * rng.NormFloat64()
		wx = append(wx, float64(e))
		wy = append(wy, v)
	}
	add("walk", wx, wy)
	return names, sets
}

// TestFitterColdBitIdentical is the refactoring gate: a cold fit must
// reproduce the pinned bits — parameters, SSE, RMSE and iteration count —
// on every corpus dataset.
func TestFitterColdBitIdentical(t *testing.T) {
	refs := coldBits(t)
	names, sets := fitterDatasets()
	f := newFitter(t)
	for si, set := range sets {
		key := fmt.Sprintf("corpus/%02d-%s", si, names[si])
		got, err := f.Fit(set[0], set[1], Options{})
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		requireCold(t, refs, key, got)
	}
}

// TestFitterColdBitIdenticalNonDefaultOptions repeats the gate with explicit
// solver options (fewer iterations, looser tolerance).
func TestFitterColdBitIdenticalNonDefaultOptions(t *testing.T) {
	refs := coldBits(t)
	xs, ys := genInverseLinear(0.2, 1.0, 0.5, 0.02, 40, 5)
	f := newFitter(t)
	for key, opts := range map[string]Options{
		"opts/maxiter=3":           {MaxIter: 3},
		"opts/tol=1e-4":            {Tol: 1e-4},
		"opts/maxiter=50,tol=1e-6": {MaxIter: 50, Tol: 1e-6},
	} {
		got, err := f.Fit(xs, ys, opts)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		requireCold(t, refs, key, got)
	}
}

func TestFitterRecoversCleanCurve(t *testing.T) {
	xs, ys := genInverseLinear(0.3, 0.8, 0.5, 0, 30, 1)
	res, err := newFitter(t).Fit(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.3, 0.8, 0.5}
	for i, w := range want {
		if math.Abs(res.Params[i]-w) > 1e-4 {
			t.Errorf("param %d = %g, want %g", i, res.Params[i], w)
		}
	}
	if res.RMSE > 1e-6 {
		t.Errorf("RMSE = %g on clean data", res.RMSE)
	}
}

func TestFitterNoisyCurve(t *testing.T) {
	xs, ys := genInverseLinear(0.2, 1.0, 0.6, 0.01, 40, 2)
	res, err := newFitter(t).Fit(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The floor c is the critical parameter for epoch prediction.
	if math.Abs(res.Params[2]-0.6) > 0.05 {
		t.Errorf("floor c = %g, want ~0.6", res.Params[2])
	}
	if res.RMSE > 0.05 {
		t.Errorf("RMSE = %g too high", res.RMSE)
	}
}

func TestFitterErrors(t *testing.T) {
	f := newFitter(t)
	if _, err := f.Fit([]float64{1, 2, 3}, []float64{1}, Options{}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := f.Fit([]float64{1, 2}, []float64{1, 0.9}, Options{}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("2 points: err = %v, want ErrInsufficientData", err)
	}
}

func TestFitterImprovesOnGuess(t *testing.T) {
	xs, ys := genInverseLinear(0.15, 2, 0.45, 0.02, 20, 3)
	f := newFitter(t)
	guess := dataGuess(xs, ys)
	f.clamp(&guess)
	guessSSE := f.sumSquares(&guess, xs, ys)
	res, err := f.Fit(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SSE > guessSSE+1e-12 {
		t.Errorf("fit SSE %g worse than guess SSE %g", res.SSE, guessSSE)
	}
}

func TestClampEnforcesPositivity(t *testing.T) {
	p := [fitterParams]float64{-1, -5, 0.2}
	newFitter(t).clamp(&p)
	if p[0] <= 0 || p[1] <= 0 || p[2] != 0.2 {
		t.Errorf("clamp left %v", p)
	}
}

// TestJacobianMatchesNumerical: with a single observation, row 2 of J^T J
// is the curve's Jacobian row (g0, g1, 1) at that x, because ∂l/∂c = 1.
func TestJacobianMatchesNumerical(t *testing.T) {
	p := []float64{0.3, 0.9, 0.5}
	f := newFitter(t)
	copy(f.params[:], p)
	for _, x := range []float64{1, 3, 10, 50} {
		f.buildNormal([]float64{x}, []float64{0})
		jac := f.jtj[2]
		const h = 1e-6
		for i := range p {
			pp := append([]float64(nil), p...)
			pm := append([]float64(nil), p...)
			pp[i] += h
			pm[i] -= h
			num := (curve(pp, x) - curve(pm, x)) / (2 * h)
			if math.Abs(num-jac[i]) > 1e-4*(1+math.Abs(num)) {
				t.Errorf("x=%g: jac[%d]=%g, numerical %g", x, i, jac[i], num)
			}
		}
	}
}

func TestFitterDeterministic(t *testing.T) {
	xs, ys := genInverseLinear(0.25, 1.2, 0.4, 0.02, 30, 9)
	r1, err1 := newFitter(t).Fit(xs, ys, Options{})
	r2, err2 := newFitter(t).Fit(xs, ys, Options{})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range r1.Params {
		if r1.Params[i] != r2.Params[i] {
			t.Fatal("Fit is not deterministic")
		}
	}
}

func TestSolveDampedSingular(t *testing.T) {
	f := newFitter(t) // jtj is the zero matrix
	f.jtr = [fitterParams]float64{1, 1, 1}
	if f.solveDamped(0) {
		t.Error("singular, undamped system should fail")
	}
	if !f.solveDamped(1) || f.delta != f.jtr {
		t.Errorf("damping should regularize the zero matrix to the identity: delta = %v", f.delta)
	}
}

// TestFitterWarmStartConverges: a warm refit over a one-observation-extended
// series must converge in no more iterations than the cold fit and land on
// an (almost) equally good optimum.
func TestFitterWarmStartConverges(t *testing.T) {
	refs := coldBits(t)
	xs, ys := genInverseLinear(0.2, 1.0, 0.5, 0.01, 60, 7)
	f, coldF := newFitter(t), newFitter(t)
	f.SetWarmStart(true)
	if _, err := f.Fit(xs[:40], ys[:40], Options{}); err != nil {
		t.Fatal(err)
	}
	coldIters, warmIters := 0, 0
	for n := 41; n <= 60; n++ {
		cold, err := coldF.Fit(xs[:n], ys[:n], Options{})
		if err != nil {
			t.Fatal(err)
		}
		requireCold(t, refs, fmt.Sprintf("converge/n=%d", n), cold)
		warm, err := f.Fit(xs[:n], ys[:n], Options{})
		if err != nil {
			t.Fatal(err)
		}
		coldIters += cold.Iters
		warmIters += warm.Iters
		if warm.SSE > cold.SSE*1.01+1e-12 {
			t.Errorf("n=%d: warm SSE %g much worse than cold %g", n, warm.SSE, cold.SSE)
		}
		if math.Abs(warm.Params[2]-0.5) > 0.05 {
			t.Errorf("n=%d: warm floor %g drifted from 0.5", n, warm.Params[2])
		}
	}
	if warmIters > coldIters {
		t.Errorf("warm refits took %d iterations, cold %d — warm start is not helping", warmIters, coldIters)
	}
}

// TestFitterWarmStartToggle: disabling warm start forgets the stored
// parameters and reproduces the cold path bit for bit.
func TestFitterWarmStartToggle(t *testing.T) {
	refs := coldBits(t)
	xs, ys := genInverseLinear(0.25, 1.2, 0.4, 0.02, 30, 9)
	f := newFitter(t)
	f.SetWarmStart(true)
	if _, err := f.Fit(xs, ys, Options{}); err != nil {
		t.Fatal(err)
	}
	f.SetWarmStart(false)
	got, err := f.Fit(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireCold(t, refs, "toggle", got)
}

// TestFitterResultAliasing documents the Result.Params contract: the slice
// aliases Fitter storage and is rewritten by the next Fit call.
func TestFitterResultAliasing(t *testing.T) {
	xs1, ys1 := genInverseLinear(0.2, 1.0, 0.5, 0, 20, 1)
	xs2, ys2 := genInverseLinear(0.4, 0.5, 0.3, 0, 20, 2)
	f := newFitter(t)
	r1, _ := f.Fit(xs1, ys1, Options{})
	c0 := r1.Params[2]
	r2, _ := f.Fit(xs2, ys2, Options{})
	if &r1.Params[0] != &r2.Params[0] {
		t.Fatal("Result.Params should alias the Fitter's storage")
	}
	if r1.Params[2] == c0 && math.Abs(c0-0.3) > 0.1 {
		// r1's view must now show the second fit's floor (~0.3, not ~0.5).
		t.Errorf("aliased params not rewritten: %v", r1.Params)
	}
}

// TestFitterZeroAlloc is the steady-state gate: warm and cold refits must
// not touch the heap.
func TestFitterZeroAlloc(t *testing.T) {
	xs, ys := genInverseLinear(0.2, 1.0, 0.5, 0.01, 40, 3)
	f := newFitter(t)
	f.SetWarmStart(true)
	if _, err := f.Fit(xs, ys, Options{}); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := f.Fit(xs, ys, Options{}); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("warm Fitter.Fit allocates %.1f/op, want 0", avg)
	}
	f.SetWarmStart(false)
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := f.Fit(xs, ys, Options{}); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("cold Fitter.Fit allocates %.1f/op, want 0", avg)
	}
}
