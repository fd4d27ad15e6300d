//go:build !amd64

package fit

// Without the AVX kernel the normal-equation pass is the portable Go loop.

func normalPass(p *[fitterParams]float64, xs, ys []float64, ne *normal) float64 {
	return normalPassGo(p, xs, ys, ne)
}
