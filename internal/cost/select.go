package cost

import "math"

// EstimateSeconds is the modeled latency, in seconds, of estimating one
// candidate allocation: the §IV-G scheduling-overhead metric charges it per
// candidate a decision or a plan scores.
const EstimateSeconds float64 = 0.05

// Select is Algorithm 2's select_best_allocation(b, P, e): the index of the
// point that optimizes the objective over `remaining` further epochs (at
// least 1), subject to the budget left after `spent` (budget > 0: minimize
// JCT) or to the deadline headroom left after `elapsed` (otherwise: minimize
// cost under qos). ok is false when no point fits. Ties go to the first
// index achieving the optimal value.
//
// Select is one scan over the whole candidate set, as the algorithm defines
// it, so it reads points in any order: a frontier, the WO-pa full
// enumeration or Siren's unpruned grid.
func Select(points []Point, remaining int, elapsed, spent, budget, qos float64) (int, bool) {
	r := float64(max(remaining, 1))
	bestVal := math.Inf(1)
	best := -1
	for i, p := range points {
		t := r * p.Time
		c := r * p.Cost
		if budget > 0 {
			if spent+c > budget {
				continue
			}
			if t < bestVal {
				bestVal, best = t, i
			}
		} else {
			if elapsed+t > qos {
				continue
			}
			if c < bestVal {
				bestVal, best = c, i
			}
		}
	}
	return best, best >= 0
}
