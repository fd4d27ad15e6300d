package cost

import "math"

// EstimateSeconds is the modeled latency, in seconds, of estimating one
// candidate allocation: the §IV-G scheduling-overhead metric charges it per
// candidate a decision or a plan scores.
const EstimateSeconds float64 = 0.05

// Strict reports whether points are strictly ascending in Time and strictly
// descending in Cost: the Pareto-boundary shape that makes Select
// binary-searchable. Callers compute it once per candidate set.
func Strict(points []Point) bool {
	if len(points) == 0 {
		return false
	}
	for i := 1; i < len(points); i++ {
		if points[i].Time <= points[i-1].Time || points[i].Cost >= points[i-1].Cost {
			return false
		}
	}
	return true
}

// Select is Algorithm 2's select_best_allocation(b, P, e): the index of the
// point that optimizes the objective over `remaining` further epochs (at
// least 1), subject to the budget left after `spent` (budget > 0: minimize
// JCT) or to the deadline headroom left after `elapsed` (otherwise: minimize
// cost under qos). ok is false when no point fits. Ties go to the first
// index achieving the optimal value.
//
// strict must be Strict(points). On a strict set the feasible points form a
// suffix (budget) or a prefix (QoS) and Select binary-searches it in
// O(log P); on any other set it scans. Both paths evaluate the same
// feasibility expressions and return the same index.
func Select(points []Point, strict bool, remaining int, elapsed, spent, budget, qos float64) (int, bool) {
	if remaining < 1 {
		remaining = 1
	}
	r := float64(remaining)
	if strict {
		return selectBinary(points, r, elapsed, spent, budget, qos)
	}
	return selectLinear(points, r, elapsed, spent, budget, qos)
}

// selectLinear is the O(P) scan over an arbitrary candidate set (the WO-pa
// full enumeration, Siren's unpruned grid) and the reference selectBinary is
// property-tested against.
func selectLinear(points []Point, r, elapsed, spent, budget, qos float64) (int, bool) {
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

// selectBinary exploits the strict frontier order to find selectLinear's
// answer by binary search, resolving rounding ties the way the scan's strict
// `<` does.
func selectBinary(points []Point, r, elapsed, spent, budget, qos float64) (int, bool) {
	if budget > 0 {
		// Feasibility spent + r*Cost <= budget is monotone along the
		// frontier (Cost descending), so the feasible set is a suffix. Time
		// ascends, so the minimum-JCT feasible point is the suffix's first.
		lo, hi := 0, len(points)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if spent+r*points[mid].Cost > budget {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo, lo < len(points)
	}
	// QoS: feasibility elapsed + r*Time <= qos is monotone (Time ascending),
	// so the feasible set is a prefix; Cost descends, so the minimum-cost
	// feasible point sits at the prefix's end.
	lo, hi := 0, len(points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if elapsed+r*points[mid].Time > qos {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return -1, false
	}
	// Strictly descending Cost can still collide after the r*Cost rounding;
	// the scan keeps the first index of a tied run, so walk back over exact
	// float ties.
	j := lo - 1
	tied := r * points[j].Cost
	for j > 0 && r*points[j-1].Cost == tied {
		j--
	}
	return j, true
}
