package ml

// dot8AVX sets d[k] to the dot product of w[:n] and rows[k][:n] for k < 8;
// dot4AVX does the same for k < 4 and leaves d[4:] alone. n is a positive
// multiple of four.
//
//go:noescape
func dot8AVX(w *float64, rows *[8]*float64, n int, d *[8]float64)

//go:noescape
func dot4AVX(w *float64, rows *[8]*float64, n int, d *[8]float64)

// dot8x2AVX sets d[k] and e[k] to the dot products of w[:n] and v[:n] with
// rows[k][:n] for k < 8; dot4x2AVX does the same for k < 4 and leaves
// d[4:] and e[4:] alone. n is a positive multiple of four.
//
//go:noescape
func dot8x2AVX(w, v *float64, rows *[8]*float64, n int, d, e *[8]float64)

//go:noescape
func dot4x2AVX(w, v *float64, rows *[8]*float64, n int, d, e *[8]float64)

// axpy4AVX computes y[i] += a0*x[0][i] + a1*x[1][i] + a2*x[2][i] +
// a3*x[3][i], added in that order, for i < n; n is a positive multiple of
// four.
//
//go:noescape
func axpy4AVX(a0, a1, a2, a3 float64, x *[4]*float64, y *float64, n int)

// dot8 sets d[k] = Dot(w, rows[k]) for every k < n (n <= 8), bit for bit;
// like dot8Go it may compute rows n..7 too, so every slot must hold a row
// of at least len(w) values. The AVX kernel covers the columns up to the
// last multiple of four and each row's chain continues over the rest here.
func dot8(w []float64, rows *[8][]float64, n int, d *[8]float64) {
	n4 := len(w) &^ 3
	if !useAVX || n4 == 0 {
		dot8Go(w, rows, n, d)
		return
	}
	var p [8]*float64
	for k, r := range rows {
		p[k] = &r[:len(w)][0]
	}
	if n > 4 {
		dot8AVX(&w[0], &p, n4, d)
	} else {
		dot4AVX(&w[0], &p, n4, d)
	}
	for k, r := range rows[:n] {
		s := d[k]
		for i := n4; i < len(w); i++ {
			s += w[i] * r[i]
		}
		d[k] = s
	}
}

// dot8x2 is dot8 for two weight vectors in one pass over the rows: d[k] =
// Dot(w, rows[k]) and e[k] = Dot(v, rows[k]) for every k < n, bit for bit,
// as two dot8Go calls give them. len(v) must equal len(w).
func dot8x2(w, v []float64, rows *[8][]float64, n int, d, e *[8]float64) {
	v = v[:len(w)]
	n4 := len(w) &^ 3
	if !useAVX || n4 == 0 {
		dot8Go(w, rows, n, d)
		dot8Go(v, rows, n, e)
		return
	}
	var p [8]*float64
	for k, r := range rows {
		p[k] = &r[:len(w)][0]
	}
	if n > 4 {
		dot8x2AVX(&w[0], &v[0], &p, n4, d, e)
	} else {
		dot4x2AVX(&w[0], &v[0], &p, n4, d, e)
	}
	for k, r := range rows[:n] {
		s, t := d[k], e[k]
		for i := n4; i < len(w); i++ {
			s += w[i] * r[i]
			t += v[i] * r[i]
		}
		d[k], e[k] = s, t
	}
}

// axpy4 computes y += a0*x0 + a1*x1 + a2*x2 + a3*x3 with each element's
// four contributions added in x0..x3 order, bit-identical to four Axpy
// calls.
func axpy4(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	n := len(y)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	n4 := n &^ 3
	if !useAVX || n4 == 0 {
		axpy4Go(a0, a1, a2, a3, x0, x1, x2, x3, y)
		return
	}
	axpy4AVX(a0, a1, a2, a3, &[4]*float64{&x0[0], &x1[0], &x2[0], &x3[0]}, &y[0], n4)
	axpy4Go(a0, a1, a2, a3, x0[n4:], x1[n4:], x2[n4:], x3[n4:], y[n4:])
}
