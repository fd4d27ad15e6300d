package planner

import (
	"math"
	"sync"

	"repro/internal/cpufeat"
)

// dpBufs recycles ExactMinJCT's value layers and minimum rows between
// solves (abl-gap runs ten at 4,000 buckets); every entry is written before
// it is read.
var dpBufs sync.Pool

// useAVX picks the AVX sweep kernels on amd64 (cpufeat.AVX); elsewhere it is
// false and unread. Only tests write it, to run the portable path on an AVX
// host.
var useAVX = cpufeat.AVX

// ExactMinJCT solves the stage-partitioning problem optimally (up to budget
// discretization) by dynamic programming over the multiple-choice knapsack:
// minimize total JCT subject to total cost <= budget, with one allocation
// chosen per stage from the Pareto set.
//
// The DP state tracks (stage, budget bucket, previous stage's memory size)
// so the warm/cold start transition the JCT model charges between stages of
// different memory sizes is captured exactly. Each stage's values are one
// layer of (memory, bucket) minima; every layer is kept, and the plan is
// recovered by a backtrack through them instead of parent pointers. A stage
// costs O(buckets * (|mems| + |P|)): per bucket, the first and second
// minimum over the previous layer's memories, then one min-plus sweep per
// choice, which charges a warm start from the same memory and a cold start
// from the best other one. With the default 2000 buckets and the
// evaluation's frontiers it completes in milliseconds.
//
// Stage costs are rounded *up* to bucket granularity, so any returned plan
// is genuinely within budget. ok=false when no assignment fits.
//
// Among optimal plans it returns the one a forward pass keeping, per state,
// the first candidate in (bucket, memory, choice) order would reconstruct,
// bit for bit (refExactMinJCT in the tests).
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

	// Layer i holds, at [m*nb+b], the least JCT of stages 0..i at total
	// cost bucket b with stage i on memory m; +Inf where no plan gets
	// there. The table's stage times are positive and finite, so every
	// value is a positive sum or +Inf: a min of them does not depend on
	// the order it is taken in, and equal values have equal bits.
	nb := buckets + 1
	size := nm * nb
	buf, _ := dpBufs.Get().(*[]float64)
	if buf == nil || cap(*buf) < d*size+2*nb {
		buf = new([]float64)
		*buf = make([]float64, d*size+2*nb)
	}
	defer dpBufs.Put(buf)
	vals := (*buf)[:d*size]
	layer := func(i int) []float64 { return vals[i*size : (i+1)*size] }
	unreached := func(l []float64) {
		for k := range l {
			l[k] = math.Inf(1)
		}
	}

	// Stage 0: always a cold start.
	unreached(vals)
	for _, ch := range choices[0] {
		at := &vals[ch.mem*nb+ch.costB]
		*at = min(*at, ch.timeCold)
	}

	// Later stages. Rounding is monotone, so the least fl(prev[m][b]+cold)
	// over m != M is fl(v+cold) with v the least prev[m][b] over m != M:
	// the second minimum v2[b] if prev[M][b] is the minimum v1[b] (a tie
	// makes them equal), else v1[b].
	v1, v2 := (*buf)[d*size:d*size+nb], (*buf)[d*size+nb:d*size+2*nb]
	for i := 1; i < d; i++ {
		prev, cur := layer(i-1), layer(i)
		copy(v1, prev[:nb])
		unreached(v2)
		for m := 1; m < nm; m++ {
			minTwo(prev[m*nb:(m+1)*nb], v1, v2)
		}
		for _, ch := range choices[i] {
			row := ch.mem * nb
			n := nb - ch.costB
			minPlus(cur[row+ch.costB:row+nb], prev[row:row+n], v1[:n], v2[:n], ch.timeWarm, ch.timeCold)
		}
	}

	// The best terminal state, first in (bucket, memory) order.
	last := layer(d - 1)
	bestVal := math.Inf(1)
	bestB, bestM := -1, -1
	for b := 0; b < nb; b++ {
		for m := 0; m < nm; m++ {
			if v := last[m*nb+b]; v < bestVal {
				bestVal, bestB, bestM = v, b, m
			}
		}
	}
	if bestB < 0 {
		return Result{}, false
	}

	// Backtrack: at each stage, of the candidates that reach the state's
	// value exactly, take the first in (previous bucket, previous memory,
	// choice) order, the one a strict-< forward pass in that order keeps.
	plan := make([]int32, d)
	b, m := bestB, bestM
	for i := d - 1; i > 0; i-- {
		prev, want := layer(i-1), layer(i)[m*nb+b]
		pb, pm, pc := nb, nm, -1
		for ci, ch := range choices[i] {
			q := b - ch.costB
			if ch.mem != m || q < 0 {
				continue
			}
			// Only a lower bucket, or a lower memory at the same bucket,
			// comes before the candidate kept so far.
			for k := 0; k < nm && (q < pb || q == pb && k < pm); k++ {
				t := ch.timeCold
				if k == m {
					t = ch.timeWarm
				}
				if prev[k*nb+q]+t == want {
					pb, pm, pc = q, k, ci
					break
				}
			}
		}
		plan[i] = choices[i][pc].j
		b, m = pb, pm
	}
	for _, ch := range choices[0] {
		if ch.mem == m && ch.costB == b && ch.timeCold == layer(0)[m*nb+b] {
			plan[0] = ch.j
			break
		}
	}
	s := pl.eval(plan)
	return Result{Plan: pl.plan(plan), JCT: s.jct, Cost: s.cost, Feasible: s.cost <= budget*(1+1e-9)}, true
}

// minTwoGo folds row into the running first and second minima: v1[b] stays
// the least value seen at b and v2[b] the next, a tie counting twice. It is
// the non-amd64 path and the kernel's reference.
func minTwoGo(row, v1, v2 []float64) {
	v1, v2 = v1[:len(row)], v2[:len(row)]
	for b, x := range row {
		v2[b] = min(v2[b], max(v1[b], x))
		v1[b] = min(v1[b], x)
	}
}

// minPlusGo lowers dst[b] to src[b]+warm and to e+cold, e the least of the
// other memories at b: v2[b] where src[b] is the minimum v1[b], else v1[b].
// It is the non-amd64 path and the kernel's reference.
func minPlusGo(dst, src, v1, v2 []float64, warm, cold float64) {
	src, v1, v2 = src[:len(dst)], v1[:len(dst)], v2[:len(dst)]
	for b, x := range src {
		e := v1[b]
		if x == e {
			e = v2[b]
		}
		dst[b] = min(dst[b], x+warm, e+cold)
	}
}
