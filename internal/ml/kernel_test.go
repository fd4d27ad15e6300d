package ml

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sim"
)

// refGradient is the textbook gradient of obj: for each row of idx in order
// one Dot and, if the row contributes, one Axpy; then the L2 term. The
// blocked objectives must equal it bit for bit.
func refGradient(obj Objective, w []float64, m *dataset.Matrix, idx []int, grad []float64) {
	inv := 1 / float64(len(idx))
	var l2 float64
	for _, i := range idx {
		row, y := m.Row(i), m.Y[i]
		d := Dot(w, row)
		switch o := obj.(type) {
		case Logistic:
			l2 = o.L2
			Axpy(-y*Sigmoid(-y*d)*inv, row, grad)
		case Hinge:
			l2 = o.L2
			if y*d < 1 {
				Axpy(-y*inv, row, grad)
			}
		case Squared:
			l2 = o.L2
			Axpy((d-y)*inv, row, grad)
		}
	}
	if l2 > 0 {
		Axpy(l2, w, grad)
	}
}

// refLoss is the textbook loss of obj: one Dot per row in row order, the
// per-row losses summed in that order, then the average and the L2 term.
func refLoss(obj Objective, w []float64, m *dataset.Matrix) float64 {
	var sum, l2 float64
	for r := 0; r < m.Rows; r++ {
		d, y := Dot(w, m.Row(r)), m.Y[r]
		switch o := obj.(type) {
		case Logistic:
			l2 = o.L2
			sum += Log1pExp(-y * d)
		case Hinge:
			l2 = o.L2
			if v := 1 - y*d; v > 0 {
				sum += v
			}
		case Squared:
			l2 = o.L2
			e := d - y
			sum += e * e / 2
		}
	}
	loss := sum / float64(m.Rows)
	if l2 > 0 {
		n := Norm2(w)
		loss += l2 / 2 * n * n
	}
	return loss
}

// TestObjectivesMatchReference: every objective's gradient and loss equal
// refGradient and refLoss bit for bit across column tails (n % 4 of 1, 3,
// 0, 2, 0) and batch and matrix tails (n % 8 of 1, 7, 5, 4 and 5, 1, 5,
// 3), with and without L2.
func TestObjectivesMatchReference(t *testing.T) {
	rng := sim.NewRand(17)
	for _, cols := range []int{1, 3, 28, 30, 256} {
		for _, batch := range []int{1, 7, 37, 100} {
			rows := 2*batch + 3
			bin := dataset.GenerateBinary(rng, dataset.GenConfig{Samples: rows, Features: cols, NoiseFlip: 0.1})
			reg := dataset.GenerateRegression(rng, dataset.GenConfig{Samples: rows, Features: cols, NoiseStd: 1})
			w := make([]float64, cols)
			for i := range w {
				w[i] = rng.NormFloat64() * 0.3
			}
			idx := make([]int, batch)
			for i := range idx {
				idx[i] = rng.Intn(rows)
			}
			for _, l2 := range []float64{0, 1e-4} {
				for _, c := range []struct {
					obj Objective
					m   *dataset.Matrix
				}{{Logistic{l2}, bin}, {Hinge{l2}, bin}, {Squared{l2}, reg}} {
					got, want := make([]float64, cols), make([]float64, cols)
					gradient(c.obj, w, c.m, idx, got, nil)
					refGradient(c.obj, w, c.m, idx, want)
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s l2=%g cols=%d batch=%d: grad[%d] = %x, reference %x",
								c.obj.Name(), l2, cols, batch, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
					if g, r := loss(c.obj, w, c.m), refLoss(c.obj, w, c.m); math.Float64bits(g) != math.Float64bits(r) {
						t.Fatalf("%s l2=%g cols=%d rows=%d: loss %x, reference %x",
							c.obj.Name(), l2, cols, rows, math.Float64bits(g), math.Float64bits(r))
					}
				}
			}
		}
	}
}

// TestPortableRowKernels re-runs the objective and epoch reference tests
// with the AVX row kernels switched off, so an AVX host covers the portable
// path too.
func TestPortableRowKernels(t *testing.T) {
	if !useAVX {
		t.Skip("the portable path is the only path on this host")
	}
	useAVX = false
	defer func() { useAVX = true }()
	TestObjectivesMatchReference(t)
	TestRunEpochMatchesNaiveReference(t)
	TestRunEpochLaggedMatchesLossAndRunEpoch(t)
	var rows [8][]float64
	for j := range rows {
		rows[j] = []float64{float64(j), 1, -2, 0.5, 3}
	}
	w, v := []float64{1, 2, 3, 4, 5}, []float64{-1, 0.25, 7, 1e-3, 2}
	var d, e, dw, dv [8]float64
	dot8x2(w, v, &rows, 8, &d, &e)
	dot8Go(w, &rows, 8, &dw)
	dot8Go(v, &rows, 8, &dv)
	if d != dw || e != dv {
		t.Errorf("portable dot8x2 = %v, %v; dot8Go twice = %v, %v", d, e, dw, dv)
	}
}

// A weight vector one longer than a row panics in Dot and in every
// objective instead of reading into the next row.
func TestLongWeightsPanic(t *testing.T) {
	m := binData(20, 6, 0, 1)
	w := make([]float64, m.Cols+1)
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	for name, f := range map[string]func(){
		"Dot":      func() { Dot(w, m.Row(0)) },
		"gradient": func() { gradient(Squared{}, w, m, idx, make([]float64, len(w)), nil) },
		"loss":     func() { loss(Logistic{}, w, m) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with %d weights over %d columns did not panic", name, len(w), m.Cols)
				}
			}()
			f()
		}()
	}
}

// FuzzRowKernels: dot8, dot8x2 and axpy4 (the AVX kernels on an amd64 host
// with AVX) equal the Go loops (dot8Go, dot8Go once per weight vector, and
// axpy4Go) on arbitrary float64 bits (NaN, ±Inf, subnormals, -0) at lengths
// 0-67 and 1-8 rows: the same bits, or NaN wherever the Go loop gives NaN
// (NaN payloads are not compared).
func FuzzRowKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, length, nrows uint8, data []byte) {
		n, k := int(length)%68, int(nrows)%8+1
		next := func() float64 {
			if len(data) < 8 {
				return 0
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			return v
		}
		vec := func() []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = next()
			}
			return v
		}
		w := vec()
		var rows [8][]float64
		for j := range rows {
			rows[j] = vec()
		}
		same := func(what string, got, want float64) {
			if math.IsNaN(want) && math.IsNaN(got) || math.Float64bits(got) == math.Float64bits(want) {
				return
			}
			t.Fatalf("%s at n=%d rows=%d: %g (%x), Go loop %g (%x)",
				what, n, k, got, math.Float64bits(got), want, math.Float64bits(want))
		}

		var got, want [8]float64
		dot8(w, &rows, k, &got)
		dot8Go(w, &rows, k, &want)
		for j := 0; j < k; j++ {
			same("dot8", got[j], want[j])
		}

		a := [4]float64{next(), next(), next(), next()}
		y, ref := vec(), make([]float64, n)
		copy(ref, y)
		axpy4(a[0], a[1], a[2], a[3], rows[0], rows[1], rows[2], rows[3], y)
		axpy4Go(a[0], a[1], a[2], a[3], rows[0], rows[1], rows[2], rows[3], ref)
		for i := range y {
			same("axpy4", y[i], ref[i])
		}

		v := vec()
		var got2, want2 [8]float64
		dot8x2(w, v, &rows, k, &got, &got2)
		dot8Go(v, &rows, k, &want2)
		for j := 0; j < k; j++ {
			same("dot8x2 w", got[j], want[j])
			same("dot8x2 v", got2[j], want2[j])
		}
	})
}
