package planner

// minTwo is minTwoGo, bit for bit; the AVX kernel takes the buckets up to
// the last multiple of four and the Go loop the rest.
func minTwo(row, v1, v2 []float64) {
	n4 := len(row) &^ 3
	if !useAVX || n4 == 0 {
		minTwoGo(row, v1, v2)
		return
	}
	v1, v2 = v1[:len(row)], v2[:len(row)]
	minTwoAVX(&row[0], &v1[0], &v2[0], n4)
	minTwoGo(row[n4:], v1[n4:], v2[n4:])
}

// minPlus is minPlusGo, bit for bit, split as minTwo is.
func minPlus(dst, src, v1, v2 []float64, warm, cold float64) {
	n4 := len(dst) &^ 3
	if !useAVX || n4 == 0 {
		minPlusGo(dst, src, v1, v2, warm, cold)
		return
	}
	src, v1, v2 = src[:len(dst)], v1[:len(dst)], v2[:len(dst)]
	minPlusAVX(&dst[0], &src[0], &v1[0], &v2[0], n4, warm, cold)
	minPlusGo(dst[n4:], src[n4:], v1[n4:], v2[n4:], warm, cold)
}

// minTwoAVX is minTwoGo over n buckets, n a positive multiple of four.
//
//go:noescape
func minTwoAVX(row, v1, v2 *float64, n int)

// minPlusAVX is minPlusGo over n buckets, n a positive multiple of four.
//
//go:noescape
func minPlusAVX(dst, src, v1, v2 *float64, n int, warm, cold float64)
