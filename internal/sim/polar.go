package sim

import (
	"math"

	"repro/internal/cpufeat"
)

// polarPairs is how many polar pairs a block draws before it computes their
// multipliers together; the amd64 kernel takes them four at a time.
const polarPairs = 16

// useAVX2 picks the AVX2 multiplier kernel on amd64 (cpufeat.AVX2);
// elsewhere it is false and unread. Only tests write it, to run the
// portable path on an AVX2 host.
var useAVX2 = cpufeat.AVX2

// polarBlock holds accepted pairs of Marsaglia's polar method: after draw,
// pair k gives the deviates u[k]*mul[k] and v[k]*mul[k], the two values a
// NormFloat64 pair gives.
type polarBlock struct{ u, v, mul [polarPairs]float64 }

// draw fills the first n (at most polarPairs) pairs from r's stream, the
// way n NormFloat64 pairs draw them: the same rejection loop per pair, then
// every multiplier sqrt(-2*ln(s)/s) at once.
func (b *polarBlock) draw(r *Rand, n int) {
	for k := range n {
		var u, v, s float64
		for {
			u = 2*r.Float64() - 1
			v = 2*r.Float64() - 1
			s = u*u + v*v
			if s > 0 && s < 1 {
				break
			}
		}
		b.u[k], b.v[k], b.mul[k] = u, v, s
	}
	polarMuls(&b.mul, n)
}

// polarMulsGo replaces each s with sqrt(-2*ln(s)/s), as NormFloat64
// computes it: the non-amd64 path and the kernel's reference.
func polarMulsGo(s []float64) {
	for i, x := range s {
		s[i] = math.Sqrt(-2 * math.Log(x) / x)
	}
}

// NormFloat64s fills dst with standard normal deviates: the same bits, in
// the same order, as len(dst) NormFloat64 calls, leaving the stream and the
// pending spare where those calls leave them.
func (r *Rand) NormFloat64s(dst []float64) {
	if len(dst) > 0 && r.hasSpare {
		r.hasSpare = false
		dst[0] = r.spare
		dst = dst[1:]
	}
	var b polarBlock
	for len(dst) >= 2 {
		n := min(polarPairs, len(dst)/2)
		b.draw(r, n)
		for k := range n {
			dst[2*k] = b.u[k] * b.mul[k]
			dst[2*k+1] = b.v[k] * b.mul[k]
		}
		dst = dst[2*n:]
	}
	if len(dst) == 1 {
		dst[0] = r.NormFloat64()
	}
}
