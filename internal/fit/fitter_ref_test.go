package fit

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
)

// refFitter is the solver as it stood before its kernels moved into locals
// (parent of PR 25), copied verbatim with only the names changed: the
// normal equations and the damped elimination work in struct arrays, with
// the zeroing and mirror loops in Fit. It is the bit-for-bit oracle for
// Fitter on every path, warm start included, which testdata/cold.bits
// cannot cover.
type refFitter struct {
	params, trial, jac, jtr, delta [fitterParams]float64
	jtj                            [fitterParams][fitterParams]float64
	aug                            [fitterParams][fitterParams + 1]float64

	out [fitterParams]float64

	warm    bool
	hasPrev bool
	prev    [fitterParams]float64
}

func (f *refFitter) SetWarmStart(on bool) {
	f.warm = on
	if !on {
		f.hasPrev = false
	}
}

func (f *refFitter) Fit(xs, ys []float64, opts Options) (Result, error) {
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
		f.params = refDataGuess(xs, ys)
	}
	f.clamp(&f.params)
	sse := f.sumSquares(&f.params, xs, ys)
	lambda := 1e-3
	iters := 0

	for ; iters < opts.MaxIter; iters++ {
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

func refDataGuess(xs, ys []float64) [fitterParams]float64 {
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

func (f *refFitter) buildNormal(xs, ys []float64) {
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

func (f *refFitter) sumSquares(params *[fitterParams]float64, xs, ys []float64) float64 {
	a, b, c := params[0], params[1], params[2]
	var s float64
	for i := range xs {
		r := 1/(a*xs[i]+b) + c - ys[i]
		s += r * r
	}
	return s
}

func (f *refFitter) clamp(params *[fitterParams]float64) {
	if params[0] < 1e-9 {
		params[0] = 1e-9
	}
	if params[1] < 1e-9 {
		params[1] = 1e-9
	}
}

func (f *refFitter) finish(sse float64, n, iters int) Result {
	f.out = f.params
	if f.warm {
		f.prev = f.params
		f.hasPrev = true
	}
	return Result{Params: f.out[:], SSE: sse, RMSE: math.Sqrt(sse / float64(n)), Iters: iters}
}

func (f *refFitter) solveDamped(lambda float64) bool {
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

// sameBits is bit equality, except that every NaN equals every NaN: the
// payload of a NaN depends on operand order, which no output reads.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// requireSameResult fails unless got equals want (pinned or from
// refFitter) bit for bit: parameters, SSE, RMSE and iteration count.
func requireSameResult(t *testing.T, key string, want, got Result) {
	t.Helper()
	for i := range want.Params {
		if !sameBits(want.Params[i], got.Params[i]) {
			t.Errorf("%s: param %d: want %v, Fitter %v", key, i, want.Params[i], got.Params[i])
		}
	}
	if !sameBits(want.SSE, got.SSE) || !sameBits(want.RMSE, got.RMSE) || want.Iters != got.Iters {
		t.Errorf("%s: SSE/RMSE/Iters: want (%v,%v,%d), Fitter (%v,%v,%d)",
			key, want.SSE, want.RMSE, want.Iters, got.SSE, got.RMSE, got.Iters)
	}
}

// dampedCase is one input to solveDamped: a 3×3 system (not necessarily
// symmetric), its right-hand side and the damping.
type dampedCase struct {
	name   string
	jtj    [fitterParams][fitterParams]float64
	jtr    [fitterParams]float64
	lambda float64
}

// requireSameSolve runs solveDamped on both solvers from the same prior
// step and fails unless ok and every bit of delta agree: a singular exit
// leaves delta as it was, a non-finite one has already overwritten it.
func requireSameSolve(t *testing.T, c dampedCase) {
	t.Helper()
	var f Fitter
	var ref refFitter
	f.jtj, f.jtr = c.jtj, c.jtr
	ref.jtj, ref.jtr = c.jtj, c.jtr
	f.delta = [fitterParams]float64{7, -7, 0.5}
	ref.delta = f.delta
	ok, refOK := f.solveDamped(c.lambda), ref.solveDamped(c.lambda)
	if ok != refOK {
		t.Fatalf("%s: ok %v, reference %v", c.name, ok, refOK)
	}
	for i := range f.delta {
		if !sameBits(f.delta[i], ref.delta[i]) {
			t.Fatalf("%s: delta[%d] %v, reference %v (ok %v)", c.name, i, f.delta[i], ref.delta[i], ok)
		}
	}
}

// randomSystem draws entries across twenty orders of magnitude, either
// sign, with an occasional exact zero.
func randomSystem(rng *sim.Rand) (jtj [fitterParams][fitterParams]float64, jtr [fitterParams]float64) {
	draw := func() float64 {
		if rng.Intn(8) == 0 {
			return 0
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(21)-10))
	}
	for i := range jtj {
		for j := range jtj[i] {
			jtj[i][j] = draw()
		}
		jtr[i] = draw()
	}
	return jtj, jtr
}

// TestKernelMatchesReference holds buildNormal and solveDamped to the
// reference kernels bit for bit: on random data and systems, and on
// crafted systems that reach each column-0 pivot row, both column-1
// outcomes, each of the three singular exits and the non-finite exit.
func TestKernelMatchesReference(t *testing.T) {
	rng := sim.NewRand(25)
	var f Fitter
	var ref refFitter
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(64)
		xs, ys := make([]float64, n), make([]float64, n)
		for k := range xs {
			xs[k] = float64(k) + rng.Float64()*10 - 1
			ys[k] = rng.NormFloat64()
		}
		f.params = [fitterParams]float64{rng.Float64() * 2, rng.Float64() * 3, rng.NormFloat64()}
		ref.params = f.params
		f.buildNormal(xs, ys)
		ref.jtj, ref.jtr = [fitterParams][fitterParams]float64{}, [fitterParams]float64{}
		ref.buildNormal(xs, ys)
		for i := 0; i < fitterParams; i++ {
			for j := i + 1; j < fitterParams; j++ {
				ref.jtj[i][j] = ref.jtj[j][i]
			}
		}
		for i := range f.jtj {
			for j := range f.jtj[i] {
				if !sameBits(f.jtj[i][j], ref.jtj[i][j]) {
					t.Fatalf("trial %d: jtj[%d][%d] %v, reference %v", trial, i, j, f.jtj[i][j], ref.jtj[i][j])
				}
			}
			if !sameBits(f.jtr[i], ref.jtr[i]) {
				t.Fatalf("trial %d: jtr[%d] %v, reference %v", trial, i, f.jtr[i], ref.jtr[i])
			}
		}
		for _, lambda := range []float64{0, 1e-12, 1e-3, 1, 1e6} {
			requireSameSolve(t, dampedCase{fmt.Sprintf("normal %d λ=%g", trial, lambda), f.jtj, f.jtr, lambda})
		}
	}
	for trial := 0; trial < 20000; trial++ {
		jtj, jtr := randomSystem(rng)
		lambda := 0.0
		if rng.Intn(4) != 0 {
			lambda = math.Pow(10, float64(rng.Intn(25)-12))
		}
		requireSameSolve(t, dampedCase{fmt.Sprintf("random %d", trial), jtj, jtr, lambda})
	}

	nan, inf := math.NaN(), math.Inf(1)
	type m = [fitterParams][fitterParams]float64
	rhs := [fitterParams]float64{1, 2, 3}
	// Ties pick the first row; with entries that round, the other choice
	// changes the step's bits.
	oddRHS := [fitterParams]float64{0.1, 0.2, 0.7}
	for _, c := range []dampedCase{
		{"col0 pivot row 0, col1 keeps row 1", m{{4, 1, 1}, {1, 3, 1}, {1, 1, 2}}, rhs, 1e-3},
		{"col0 pivot row 0, col1 takes row 2", m{{4, 1, 1}, {1, 2, 3}, {1, 3, 20}}, rhs, 1e-3},
		{"col0 pivot row 1", m{{1, 5, 2}, {5, 30, 1}, {2, 1, 10}}, rhs, 1e-3},
		{"col0 pivot row 1 on a tie with row 2", m{{1, 4, 4}, {4, 20, 1}, {4, 1, 20}}, rhs, 1e-3},
		{"col0 keeps row 0 on a tie with row 1", m{{0.3, 0.7, 0.1}, {-0.3, 0.2, 0.9}, {0.1, 0.5, 0.4}}, oddRHS, 0},
		{"col1 keeps row 1 on a tie with row 2", m{{1, 0.3, 0.7}, {0, 0.7, 0.1}, {0, -0.7, 0.9}}, oddRHS, 0},
		{"col0 pivot row 2 past row 1", m{{1, 2, 5}, {2, 10, 1}, {5, 1, 30}}, rhs, 1e-3},
		{"col0 pivot row 2 over row 0", m{{3, 1, 5}, {1, 10, 1}, {5, 1, 30}}, rhs, 1e-3},
		{"col0 pivot row 1, col1 takes row 2", m{{1, 5, 0}, {5, 1, 1}, {0, 1, 9}}, rhs, 0},
		{"zero diagonal damped by λ", m{{0, 1, 0}, {1, 0, 1}, {0, 1, 0}}, rhs, 0.5},
		{"singular at col 0", m{{0, 0, 0}, {0, 1, 0}, {0, 0, 1}}, rhs, 0},
		{"singular at col 1", m{{1, 1, 0}, {1, 1, 0}, {0, 0, 1}}, rhs, 0},
		{"singular at col 2", m{{1, 0, 1}, {0, 1, 1}, {1, 1, 2}}, rhs, 0},
		{"non-finite step", m{{1e-200, 0, 0}, {0, 1, 0}, {0, 0, 1}}, [fitterParams]float64{1e200, 1, 1}, 0},
		{"NaN entry", m{{nan, 1, 1}, {1, 3, 1}, {1, 1, 2}}, rhs, 1e-3},
		{"NaN in a pivot candidate", m{{1, 1, 1}, {nan, 3, 1}, {2, 1, 2}}, rhs, 1e-3},
		{"Inf entry", m{{inf, 1, 1}, {1, 3, 1}, {1, 1, 2}}, rhs, 1e-3},
		{"negative zero column", m{{-0.0, 1, 1}, {0, 3, 1}, {-0.0, 1, 2}}, rhs, 0},
	} {
		requireSameSolve(t, c)
	}
}

// fleetWindow is the fleet tuning's refit (predictor.Tuning in macro-fleet):
// a sliding window of observations, warm start, an iteration cap.
const fleetWindow = 32

var fleetOptions = Options{MaxIter: 10}

// TestFitterMatchesReference holds whole fits to the reference solver bit
// for bit: cold with default options on the fitterDatasets corpus, and
// 64 warm, capped refits of a sliding window per series — the regime
// testdata/cold.bits does not pin.
func TestFitterMatchesReference(t *testing.T) {
	names, sets := fitterDatasets()
	f, ref := newFitter(t), &refFitter{}
	for si, set := range sets {
		key := fmt.Sprintf("corpus/%02d-%s", si, names[si])
		got, err := f.Fit(set[0], set[1], Options{})
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		want, err := ref.Fit(set[0], set[1], Options{})
		if err != nil {
			t.Fatalf("%s: reference: %v", key, err)
		}
		requireSameResult(t, key, want, got)
	}

	const refits = 64
	noisyX, noisyY := genInverseLinear(0.2, 1.0, 0.5, 0.02, fleetWindow+refits, 11)
	walkX, walkY := make([]float64, fleetWindow+refits), make([]float64, fleetWindow+refits)
	rng, v := sim.NewRand(12), 1.0
	for e := range walkX {
		v += 0.05 * rng.NormFloat64()
		walkX[e], walkY[e] = float64(e+1), v
	}
	for _, s := range []struct {
		name   string
		xs, ys []float64
	}{{"noisy", noisyX, noisyY}, {"walk", walkX, walkY}} {
		f.SetWarmStart(true)
		ref.SetWarmStart(true)
		for i := 0; i < refits; i++ {
			xs, ys := s.xs[i:i+fleetWindow], s.ys[i:i+fleetWindow]
			key := fmt.Sprintf("fleet/%s/%d", s.name, i)
			got, err := f.Fit(xs, ys, fleetOptions)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			want, err := ref.Fit(xs, ys, fleetOptions)
			if err != nil {
				t.Fatalf("%s: reference: %v", key, err)
			}
			requireSameResult(t, key, want, got)
		}
		f.SetWarmStart(false)
		ref.SetWarmStart(false)
	}
}

// FuzzFitterFit drives Fit on arbitrary finite series. series is a run of
// little-endian float64 (x, y) pairs, 3 to 64 of them; the fit slides a
// window of all but up to three points across them, maxIter is
// Options.MaxIter (0 is the default) and warm toggles warm start. Every
// fit must match refFitter bit for bit, keep a, b ≥ 1e-9 and return an SSE
// no worse than that of its clamped starting point. The seeds are in
// testdata/fuzz/FuzzFitterFit: curves over epochs (the fleet window among
// them), over x < 1 (the only inputs that make row 1 the column-0 pivot) and
// over negative x, a plateau, a rising series and extreme magnitudes.
func FuzzFitterFit(f *testing.F) {
	f.Fuzz(func(t *testing.T, series []byte, maxIter uint8, warm bool) {
		n := len(series) / 16
		if n > 64 {
			n = 64
		}
		if n < fitterParams {
			return
		}
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(series[16*i:]))
			ys[i] = math.Float64frombits(binary.LittleEndian.Uint64(series[16*i+8:]))
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) || math.IsNaN(ys[i]) || math.IsInf(ys[i], 0) {
				return
			}
		}
		opts := Options{MaxIter: int(maxIter)}
		w := n - 3
		if w < fitterParams {
			w = fitterParams
		}
		fitter, ref := newFitter(t), &refFitter{}
		fitter.SetWarmStart(warm)
		ref.SetWarmStart(warm)
		var start [fitterParams]float64
		for lo := 0; lo+w <= n; lo++ {
			wx, wy := xs[lo:lo+w], ys[lo:lo+w]
			if !warm || lo == 0 {
				start = dataGuess(wx, wy)
			}
			fitter.clamp(&start)
			startSSE := fitter.sumSquares(&start, wx, wy)
			got, err := fitter.Fit(wx, wy, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Fit(wx, wy, opts)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("window %d", lo)
			requireSameResult(t, key, want, got)
			if !(got.Params[0] >= 1e-9 && got.Params[1] >= 1e-9) {
				t.Fatalf("%s: a, b = %v, %v, want both ≥ 1e-9", key, got.Params[0], got.Params[1])
			}
			if got.SSE > startSSE {
				t.Fatalf("%s: SSE %v above the starting point's %v", key, got.SSE, startSSE)
			}
			copy(start[:], got.Params)
		}
	})
}
