package obs

import (
	"math"
	"sort"
)

// Streaming aggregation for high-rate workloads: fixed-size accumulators
// that retain no per-observation record, so a traffic scenario can measure
// tens of millions of invocations with memory proportional to the tenant
// count, not the invocation count. Hist is the fixed-bucket histogram (the
// Metrics registry keeps its histograms as Hists behind its mutex); Jain is
// the fairness index computed at report boundaries.

// Hist is a standalone fixed-bucket histogram: Counts[i] tallies
// observations v <= Bounds[i], the final slot counts overflow (+Inf). It is
// a plain value owned by a single writer — Observe is lock-free and
// allocation-free — which is what per-tenant streaming aggregation needs
// where the registry's mutex and map lookup would dominate the hot path.
type Hist struct {
	bounds []float64
	counts []uint64
	sum    float64
	total  uint64
}

// NewHist returns a histogram with the given sorted bucket upper bounds
// (copied; an implicit +Inf overflow bucket is appended).
func NewHist(bounds []float64) *Hist {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Hist{bounds: b, counts: make([]uint64, len(b)+1)}
}

// LatencyBuckets is the default bound set for end-to-end invocation
// latencies: sub-100ms warm hits through multi-minute queueing collapse.
var LatencyBuckets = []float64{
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600,
}

// Observe records v. Values exactly on a bucket's upper bound land in that
// bucket (v <= bound).
func (h *Hist) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.total++
}

// Total reports how many values were observed.
func (h *Hist) Total() uint64 { return h.total }

// Sum reports the running sum of observed values.
func (h *Hist) Sum() float64 { return h.sum }

// Mean reports the running mean (0 with no observations).
func (h *Hist) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Quantile returns the upper bound of the bucket containing the q-quantile
// (0 <= q <= 1) — a deterministic, conservative estimate. Observations in
// the overflow bucket report +Inf; an empty histogram reports 0.
func (h *Hist) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// Merge adds o's counts into h. Both histograms must share identical
// bounds; Merge panics otherwise, because silently mixing bucket layouts
// would corrupt every quantile read afterwards.
func (h *Hist) Merge(o *Hist) {
	if len(h.bounds) != len(o.bounds) {
		panic("obs: Hist.Merge with different bucket layouts")
	}
	for i, b := range h.bounds {
		if b != o.bounds[i] {
			panic("obs: Hist.Merge with different bucket layouts")
		}
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.sum += o.sum
	h.total += o.total
}

// Snapshot returns a point-in-time copy in the registry's export shape.
func (h *Hist) Snapshot() HistSnapshot {
	return HistSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Total:  h.total,
	}
}

// Jain returns Jain's fairness index (sum x)^2 / (n * sum x^2) over the
// values, summed in slice order so the float result is deterministic for a
// deterministic input order. The index is 1 when all values are equal and
// approaches 1/n as one value dominates. Degenerate inputs (no values, or
// all zero) report 1: an empty fleet is trivially fair.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
