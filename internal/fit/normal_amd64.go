package fit

// normalPass is normalPassGo, bit for bit: the AVX kernel on an AVX host,
// the Go loop otherwise.
func normalPass(p *[fitterParams]float64, xs, ys []float64, ne *normal) float64 {
	if !useAVX {
		return normalPassGo(p, xs, ys, ne)
	}
	return normalPassAVX(p[0], p[1], p[2], xs, ys[:len(xs)], ne)
}

// normalPassAVX is normalPassGo at (a, b, c) over len(xs) points; ys holds
// as many.
//
//go:noescape
func normalPassAVX(a, b, c float64, xs, ys []float64, ne *normal) (sse float64)
