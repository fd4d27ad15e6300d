package sha

import (
	"math"
	"sort"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TPESampler is a BOHB-style model-based configuration sampler (Falkner et
// al.; the paper's [20]): instead of sampling hyperparameters uniformly, it
// splits the observed configurations into a good and a bad set by loss
// quantile, fits kernel density estimates over log10(lr) for both, and
// proposes the candidate maximizing the good/bad density ratio. The paper
// notes its partitioning applies to BOHB unchanged (§II-A); RunBOHB
// demonstrates that combination.
type TPESampler struct {
	obs []tpeObs
	rng *sim.Rand
}

// The sampler's model: tpeGamma is the good-set quantile, tpeMinObs how many
// observations are required before the model is trusted (uniform sampling
// until then), and tpeCandidates how many proposals the ratio ranks.
const (
	tpeGamma      = 0.25
	tpeMinObs     = 8
	tpeCandidates = 24
)

type tpeObs struct {
	logLR    float64
	momentum float64
	loss     float64
}

// NewTPESampler returns a sampler seeded deterministically.
func NewTPESampler(seed uint64) *TPESampler {
	return &TPESampler{rng: sim.NewRand(seed)}
}

// Observe records a finished trial's configuration and loss.
func (s *TPESampler) Observe(hp workload.Hyperparams, loss float64) {
	if hp.LR <= 0 || math.IsNaN(loss) || math.IsInf(loss, 0) {
		return
	}
	s.obs = append(s.obs, tpeObs{logLR: math.Log10(hp.LR), momentum: hp.Momentum, loss: loss})
}

// Observations reports how many results the model has seen.
func (s *TPESampler) Observations() int { return len(s.obs) }

// Suggest proposes the next configuration for workload w.
func (s *TPESampler) Suggest(w *workload.Model) workload.Hyperparams {
	if len(s.obs) < tpeMinObs {
		return SampleHyperparams(w, s.rng)
	}
	sorted := make([]tpeObs, len(s.obs))
	copy(sorted, s.obs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].loss < sorted[j].loss })
	nGood := int(math.Ceil(tpeGamma * float64(len(sorted))))
	if nGood < 2 {
		nGood = 2
	}
	good, bad := sorted[:nGood], sorted[nGood:]
	if len(bad) < 2 {
		return SampleHyperparams(w, s.rng)
	}

	goodKDE := newKDE(extractLogLR(good))
	badKDE := newKDE(extractLogLR(bad))

	// Sample candidates from the good KDE, keep the best density ratio.
	bestRatio := math.Inf(-1)
	var bestLR float64
	for c := 0; c < tpeCandidates; c++ {
		x := goodKDE.sample(s.rng)
		ratio := goodKDE.density(x) / math.Max(badKDE.density(x), 1e-12)
		if ratio > bestRatio {
			bestRatio = ratio
			bestLR = x
		}
	}
	// Momentum: re-use a good observation's momentum with jitter.
	m := good[s.rng.Intn(len(good))].momentum
	m += 0.05 * s.rng.NormFloat64()
	if m < 0 {
		m = 0
	}
	if m > 0.99 {
		m = 0.99
	}
	return workload.Hyperparams{LR: math.Pow(10, bestLR), Momentum: m}
}

func extractLogLR(obs []tpeObs) []float64 {
	out := make([]float64, len(obs))
	for i, o := range obs {
		out[i] = o.logLR
	}
	return out
}

// kde is a 1-D Gaussian kernel density estimate with Silverman bandwidth.
type kde struct {
	points    []float64
	bandwidth float64
}

func newKDE(points []float64) *kde {
	n := float64(len(points))
	var mean, sq float64
	for _, p := range points {
		mean += p
	}
	mean /= n
	for _, p := range points {
		sq += (p - mean) * (p - mean)
	}
	std := math.Sqrt(sq / n)
	bw := 1.06 * std * math.Pow(n, -0.2)
	if bw < 0.05 {
		bw = 0.05 // floor so degenerate sets still smooth
	}
	return &kde{points: points, bandwidth: bw}
}

func (k *kde) density(x float64) float64 {
	var sum float64
	inv := 1 / (k.bandwidth * math.Sqrt(2*math.Pi))
	for _, p := range k.points {
		z := (x - p) / k.bandwidth
		sum += inv * math.Exp(-z*z/2)
	}
	return sum / float64(len(k.points))
}

func (k *kde) sample(rng *sim.Rand) float64 {
	p := k.points[rng.Intn(len(k.points))]
	return p + k.bandwidth*rng.NormFloat64()
}

// RunBOHB is Hyperband with TPE sampling: trial configurations come from a
// sampler shared across brackets, so later brackets exploit what earlier
// ones learned. The per-bracket resource partitioning still comes from
// cfg.PlanBracket (CE-scaling's planner or a static plan).
func RunBOHB(cfg HyperbandConfig) (*HyperbandResult, *TPESampler, error) {
	sampler := NewTPESampler(cfg.Seed ^ 0xb0b)
	res, err := runBrackets(cfg, 1013,
		func(*sim.Rand) workload.Hyperparams { return sampler.Suggest(cfg.Workload) },
		func(tr *Trial) { sampler.Observe(tr.HP, tr.Loss) })
	if err != nil {
		return nil, nil, err
	}
	return res, sampler, nil
}
