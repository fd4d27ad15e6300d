package planner

import "math"

// ExactMinJCT solves the stage-partitioning problem optimally (up to budget
// discretization) by dynamic programming over the multiple-choice knapsack:
// minimize total JCT subject to total cost <= budget, with one allocation
// chosen per stage from the Pareto set.
//
// The DP state tracks (stage, budget bucket, previous stage's memory size)
// so the warm/cold start transition the JCT model charges between stages of
// different memory sizes is captured exactly. Runtime is
// O(d * buckets * |mems| * |P|); with the default 2000 buckets and the
// evaluation's frontiers it completes in milliseconds.
//
// Stage costs are rounded *up* to bucket granularity, so any returned plan
// is genuinely within budget. ok=false when no assignment fits.
//
// This solver exists to measure the greedy heuristic's optimality gap (the
// paper argues the greedy is good enough; the gap experiment quantifies it
// on this substrate). It is exponentially cheaper than brute force but
// still far too slow to run inside the scheduling loop at production rates,
// which is the paper's point.
func (pl *Planner) ExactMinJCT(budget float64, buckets int) (Result, bool) {
	if buckets <= 0 {
		buckets = 2000
	}
	d := len(pl.Stages)
	unit := budget / float64(buckets)
	if unit <= 0 {
		return Result{}, false
	}

	// Distinct memory sizes appearing in P, for the transition dimension.
	memIdx := map[int]int{}
	var mems []int
	for _, p := range pl.P {
		if _, ok := memIdx[p.Alloc.MemMB]; !ok {
			memIdx[p.Alloc.MemMB] = len(mems)
			mems = append(mems, p.Alloc.MemMB)
		}
	}
	nm := len(mems)

	// Per-stage, per-choice cost buckets and times, from the plan
	// evaluation table.
	type choice struct {
		j        int32   // index into P
		costB    int     // cost in buckets, rounded up
		timeCold float64 // stage time when paying a cold start
		timeWarm float64
		mem      int // index into mems
	}
	choices := make([][]choice, d)
	for i := 0; i < d; i++ {
		for j, p := range pl.P {
			k := i*len(pl.P) + j
			// Compare before converting: a NaN or overflowing quotient (a
			// NaN or tiny budget) must not wrap around to a free choice.
			q := math.Ceil(pl.stageCost[k]/unit - 1e-12)
			if !(q <= float64(buckets)) {
				continue // can never fit
			}
			b := max(0, int(q))
			choices[i] = append(choices[i], choice{
				j:        int32(j),
				costB:    b,
				timeCold: pl.coldTime[k],
				timeWarm: pl.warmTime[k],
				mem:      memIdx[p.Alloc.MemMB],
			})
		}
		if len(choices[i]) == 0 {
			return Result{}, false
		}
	}

	// dp[b][m] = min JCT using exactly the stages so far, total cost bucket
	// b, previous stage memory index m. parent pointers reconstruct plans.
	const inf = math.MaxFloat64
	size := (buckets + 1) * nm
	dp := make([]float64, size)
	next := make([]float64, size)
	type parent struct{ b, m, choice int32 }
	parents := make([][]parent, d)

	idx := func(b, m int) int { return b*nm + m }

	// Stage 0: always a cold start; "previous memory" becomes its own.
	for i := range dp {
		dp[i] = inf
	}
	parents[0] = make([]parent, size)
	for ci, ch := range choices[0] {
		at := idx(ch.costB, ch.mem)
		if ch.timeCold < dp[at] {
			dp[at] = ch.timeCold
			parents[0][at] = parent{b: -1, m: -1, choice: int32(ci)}
		}
	}

	for i := 1; i < d; i++ {
		for j := range next {
			next[j] = inf
		}
		parents[i] = make([]parent, size)
		for b := 0; b <= buckets; b++ {
			for m := 0; m < nm; m++ {
				cur := dp[idx(b, m)]
				if cur == inf {
					continue
				}
				for ci, ch := range choices[i] {
					nb := b + ch.costB
					if nb > buckets {
						continue
					}
					t := ch.timeWarm
					if ch.mem != m {
						t = ch.timeCold
					}
					at := idx(nb, ch.mem)
					if v := cur + t; v < next[at] {
						next[at] = v
						parents[i][at] = parent{b: int32(b), m: int32(m), choice: int32(ci)}
					}
				}
			}
		}
		dp, next = next, dp
	}

	// Find the best terminal state.
	bestVal := inf
	bestB, bestM := -1, -1
	for b := 0; b <= buckets; b++ {
		for m := 0; m < nm; m++ {
			if v := dp[idx(b, m)]; v < bestVal {
				bestVal, bestB, bestM = v, b, m
			}
		}
	}
	if bestB < 0 {
		return Result{}, false
	}

	// Reconstruct.
	plan := make([]int32, d)
	b, m := bestB, bestM
	for i := d - 1; i >= 0; i-- {
		p := parents[i][idx(b, m)]
		plan[i] = choices[i][p.choice].j
		if i > 0 {
			b, m = int(p.b), int(p.m)
		}
	}
	s := pl.eval(plan)
	return Result{Plan: pl.plan(plan), JCT: s.jct, Cost: s.cost, Feasible: s.cost <= budget*(1+1e-9)}, true
}
