package fit

import (
	"encoding/binary"
	"math"
	"testing"
)

// x86NaN is v, the result of an op with first source src1 and second
// source src2, with the payload an x86 op gives a NaN result: the first
// NaN source's, quieted (a NaN from two non-NaN sources is the default NaN,
// which v already is).
func x86NaN(v, src1, src2 float64) float64 {
	const quiet = 1 << 51
	switch {
	case math.IsNaN(src1):
		return math.Float64frombits(math.Float64bits(src1) | quiet)
	case math.IsNaN(src2):
		return math.Float64frombits(math.Float64bits(src2) | quiet)
	}
	return v
}

// nanPass is normalPassGo with every op's NaN payload fixed by x86NaN and
// the first sources normalPassAVX uses. The compiled Go loop's payloads
// follow the register allocator, which picks the first source of a
// commutative op differently in a -race or -fuzz build, so only the
// kernel, whose operand order is fixed, is held to payloads.
func nanPass(p *[fitterParams]float64, xs, ys []float64, ne *normal) float64 {
	a, b, c := p[0], p[1], p[2]
	add := func(x, y float64) float64 { return x86NaN(x+y, x, y) }
	mul := func(x, y float64) float64 { return x86NaN(x*y, x, y) }
	var sse, s00, s10, s11, s20, s21, r0, r1, r2 float64
	for k, x := range xs {
		den := add(mul(x, a), b)
		dd := mul(den, den)
		g1 := x86NaN(-1/dd, -1, dd)
		g0 := mul(x, g1)
		inv := x86NaN(1/den, 1, den)
		rc := add(inv, c)
		r := x86NaN(rc-ys[k], rc, ys[k])
		sse = add(sse, mul(r, r))
		r0 = add(r0, mul(r, g0))
		r1 = add(r1, mul(r, g1))
		r2 = add(r2, r)
		s00 = add(s00, mul(g0, g0))
		s10 = add(s10, mul(g0, g1))
		s11 = add(s11, mul(g1, g1))
		s20 = add(s20, g0)
		s21 = add(s21, g1)
	}
	s22 := float64(len(xs))
	*ne = normal{
		jtj: [fitterParams][fitterParams]float64{{s00, s10, s20}, {s10, s11, s21}, {s20, s21, s22}},
		jtr: [fitterParams]float64{r0, r1, r2},
	}
	return sse
}

// requireSamePass fails unless normalPass at p gives normalPassGo's SSE
// and normal equations bit for bit (a NaN equals every NaN) and, on the
// AVX path, nanPass's with every NaN payload.
func requireSamePass(t *testing.T, p [fitterParams]float64, xs, ys []float64) {
	t.Helper()
	var got, want, model normal
	sse := normalPass(&p, xs, ys, &got)
	wantSSE := normalPassGo(&p, xs, ys, &want)
	modelSSE := nanPass(&p, xs, ys, &model)
	check := func(what string, g, w, m float64) {
		if !sameBits(g, w) {
			t.Fatalf("%s at n=%d, p=%v: %v (%#x), Go loop %v (%#x)",
				what, len(xs), p, g, math.Float64bits(g), w, math.Float64bits(w))
		}
		if useAVX && math.Float64bits(g) != math.Float64bits(m) {
			t.Fatalf("%s at n=%d, p=%v: %v (%#x), x86 NaN rule gives %#x",
				what, len(xs), p, g, math.Float64bits(g), math.Float64bits(m))
		}
	}
	check("SSE", sse, wantSSE, modelSSE)
	for i := range got.jtj {
		for j := range got.jtj[i] {
			check("jtj", got.jtj[i][j], want.jtj[i][j], model.jtj[i][j])
		}
		check("jtr", got.jtr[i], want.jtr[i], model.jtr[i])
	}
}

// FuzzNormalPass holds the normal-equation pass to the Go loop bit for
// bit, and the AVX kernel's NaN payloads to the x86 rule (nanPass), on
// arbitrary float64 bits: NaN, infinities, ±0 and subnormals included. a, b and c are the curve; series is a run of
// little-endian float64 (x, y) pairs, 0 to 67 of them (every n % 4 tail).
// The seeds are in testdata/fuzz/FuzzNormalPass: fleet-sized and longer
// curves, a zero denominator, Inf − Inf, subnormals, and NaNs with
// distinct payloads that meet in every accumulator.
func FuzzNormalPass(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b, c uint64, series []byte) {
		n := min(len(series)/16, 67)
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(series[16*i:]))
			ys[i] = math.Float64frombits(binary.LittleEndian.Uint64(series[16*i+8:]))
		}
		p := [fitterParams]float64{math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c)}
		requireSamePass(t, p, xs, ys)
	})
}

// TestPortableFitPath re-runs the reference tests with the AVX kernel
// switched off, so an AVX host covers the portable path too.
func TestPortableFitPath(t *testing.T) {
	if !useAVX {
		t.Skip("the portable path is the only path on this host")
	}
	useAVX = false
	defer func() { useAVX = true }()
	TestKernelMatchesReference(t)
	TestFitterMatchesReference(t)
}
