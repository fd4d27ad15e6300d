package sim

import "math"

// Rand is a small, fast, deterministic PRNG (splitmix64 core) used for all
// stochastic behaviour in the simulator. It is intentionally independent of
// math/rand so that experiment outputs are stable across Go releases.
type Rand struct {
	state uint64
	// spare holds the second normal deviate of the last polar pair.
	spare    float64
	hasSpare bool
}

// NewRand returns a stream seeded with seed.
func NewRand(seed uint64) *Rand {
	// Avoid the all-zero state producing a weak opening sequence.
	return &Rand{state: seed + 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 random bits (splitmix64).
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// NormFloat64 returns a standard normal deviate by Marsaglia's polar method:
// each accepted pair (u, v) inside the unit circle gives two deviates, the
// second kept as the spare for the next call. NormFloat64s draws the same
// deviates in bulk.
func (r *Rand) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	mul := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * mul
	r.hasSpare = true
	return u * mul
}

// LogNormal returns exp(N(mu, sigma)). With mu=0 the median is 1, which makes
// it convenient as a multiplicative noise factor.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// maxSigma bounds the sigma MaxLogNormal accepts. A deviate has |z| < 12.2
// (s is at least 2^-104), so sigma*z stays inside (-610, 610), where math.Exp
// neither overflows nor goes subnormal.
const maxSigma = 50

// MaxLogNormal returns the largest of n LogNormal(0, sigma) draws, bit for bit
// what a loop over LogNormal keeps (starting from 0), and leaves the stream
// where that loop leaves it: it draws the same n normal deviates, in polar
// blocks as NormFloat64s does. exp is increasing, so only the largest
// sigma*z needs an Exp. It panics unless 0 < sigma <= maxSigma.
func (r *Rand) MaxLogNormal(n int, sigma float64) float64 {
	if !(sigma > 0 && sigma <= maxSigma) {
		panic("sim: MaxLogNormal with sigma outside (0, 50]")
	}
	m := maxExp{best: math.Inf(-1)}
	if n > 0 && r.hasSpare {
		r.hasSpare = false
		m.add(sigma * r.spare)
		n--
	}
	var b polarBlock
	for n >= 2 {
		k := min(polarPairs, n/2)
		b.draw(r, k)
		for i := range k {
			m.add(sigma * (b.u[i] * b.mul[i]))
			m.add(sigma * (b.v[i] * b.mul[i]))
		}
		n -= 2 * k
	}
	if n == 1 {
		m.add(sigma * r.NormFloat64())
	}
	return m.result()
}

// expTieTol is how far below the running maximum an exponent still gets its
// own Exp. math.Exp is not monotone between adjacent inputs (on amd64,
// Exp(0x3fdbf767682d4680) exceeds the Exp of the next float64), but any x
// more than this below the maximum has a smaller exp(x) as long as
// math.Exp's relative error stays under about 4e-10; it is under one ulp
// (2.2e-16).
const expTieTol = 0x1p-30

// maxExp keeps max exp(x) over the values added while calling math.Exp only
// for the largest x and the rare x within expTieTol of it. near is the
// largest Exp taken so far of a value that is not best.
type maxExp struct{ best, near float64 }

// add is small enough to inline: most values fall more than expTieTol below
// the maximum and cost one comparison.
func (m *maxExp) add(x float64) {
	if x >= m.best-expTieTol {
		m.raise(x)
	}
}

// raise takes x that is at least m.best-expTieTol.
func (m *maxExp) raise(x float64) {
	if x > m.best {
		if m.best >= x-expTieTol {
			m.near = max(m.near, math.Exp(m.best))
		}
		m.best = x
	} else {
		m.near = max(m.near, math.Exp(x))
	}
}

func (m *maxExp) result() float64 { return max(m.near, math.Exp(m.best)) }

// Exp returns an exponentially distributed value with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Jitter returns 1 + uniform(-frac, +frac), a bounded multiplicative noise
// factor.
func (r *Rand) Jitter(frac float64) float64 {
	return 1 + frac*(2*r.Float64()-1)
}
