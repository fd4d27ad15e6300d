package planner

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/workload"
)

// refExactMinJCT is ExactMinJCT before its values-only sweep, verbatim: the
// same DP over one (bucket, memory) layer at a time in bucket-major order,
// with a parent pointer per state and stage. It updates a state only on a
// strict <, in (bucket, memory, choice) order, so each state keeps the first
// candidate in that order that reaches its value; ExactMinJCT's backtrack
// must recover the same plan, and its JCT and cost bits.
func (pl *Planner) refExactMinJCT(budget float64, buckets int) (Result, bool) {
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

// checkExactMatchesRef fails unless ExactMinJCT and refExactMinJCT agree on
// ok and, when ok, on the plan and the JCT and cost bits.
func checkExactMatchesRef(t testing.TB, pl *Planner, budget float64, buckets int) {
	t.Helper()
	got, gok := pl.ExactMinJCT(budget, buckets)
	want, wok := pl.refExactMinJCT(budget, buckets)
	if gok != wok {
		t.Fatalf("budget %g, %d buckets: ok %v, reference %v", budget, buckets, gok, wok)
	}
	if field := sameResult(got, want); field != "" {
		t.Fatalf("budget %g, %d buckets: %s differs: got %+v, reference %+v", budget, buckets, field, got, want)
	}
}

// TestExactMatchesReference: 1,125 solves, 5 models x 5 SHA shapes x 9
// budgets (from below the cheapest static plan to unconstrained) x 5 bucket
// counts (down to one bucket, where every choice costs all or nothing),
// against the parent-pointer DP.
func TestExactMatchesReference(t *testing.T) {
	shapes := [][]Stage{SHAStages(256, 2, 2), SHAStages(128, 3, 1), SHAStages(64, 2, 2),
		SHAStages(8, 2, 1), {{Trials: 4, Epochs: 2}}}
	for _, w := range workload.Evaluated() {
		m := cost.NewModel(w)
		pareto := m.ParetoSet(cost.DefaultGrid())
		for _, stages := range shapes {
			pl, err := New(m, stages, pareto)
			if err != nil {
				t.Fatal(err)
			}
			cheapest := pl.OptimalStatic(0, 1e15).Cost
			for _, mult := range []float64{0.7, 0.95, 1, 1.05, 1.2, 1.5, 2, 4, 1e3} {
				for _, buckets := range []int{1, 3, 97, 1000, 4000} {
					t.Run(fmt.Sprintf("%s/%d/x%g/%d", w.Name, len(stages), mult, buckets), func(t *testing.T) {
						checkExactMatchesRef(t, pl, cheapest*mult, buckets)
					})
				}
			}
		}
	}
}

// TestExactMatchesReferenceOnTies: the same comparison on planners whose
// stage times are rounded to multiples of 1024 s, so that many plans tie
// exactly and the backtrack's choice among equal-valued candidates is what
// is compared. In the swapped variant every
// other allocation's warm start is slower than its cold one, so that a cold
// start from the same memory could win and only the exclusive minimum (the
// least over the other memories) gives the reference's values.
func TestExactMatchesReferenceOnTies(t *testing.T) {
	for _, w := range workload.Evaluated() {
		m := cost.NewModel(w)
		pareto := m.ParetoSet(cost.DefaultGrid())
		for _, stages := range [][]Stage{SHAStages(64, 2, 2), SHAStages(16, 4, 1)} {
			for _, swap := range []bool{false, true} {
				pl, err := New(m, stages, pareto)
				if err != nil {
					t.Fatal(err)
				}
				coarsen(pl, swap)
				cheapest := pl.OptimalStatic(0, 1e15).Cost
				for _, mult := range []float64{1, 1.3, 2, 1e3} {
					for _, buckets := range []int{5, 64, 500} {
						t.Run(fmt.Sprintf("%s/%d/swap=%v/x%g/%d", w.Name, len(stages), swap, mult, buckets), func(t *testing.T) {
							checkExactMatchesRef(t, pl, cheapest*mult, buckets)
						})
					}
				}
			}
		}
	}
}

// coarsen rounds pl's stage times to multiples of 1024 s, so that
// different plans reach equal totals, and with swap makes every other
// table entry's warm start slower than its cold one.
func coarsen(pl *Planner, swap bool) {
	round := func(x, step float64) float64 { return step * max(1, math.Round(x/step)) }
	for k := range pl.coldTime {
		pl.warmTime[k] = round(pl.warmTime[k], 1024)
		pl.coldTime[k] = round(pl.coldTime[k], 1024)
		if swap && k%2 == 1 {
			pl.warmTime[k], pl.coldTime[k] = pl.coldTime[k]+1024, pl.warmTime[k]
		}
	}
}

// TestExactMatchesReferenceSmallIntegers: 2,000 planners with 2-5 stages
// whose tables are replaced by small random integers (times 1-4, costs 0-3
// buckets), so that most states are reached by several equal-valued
// candidates from different buckets and memories and many plans tie at the
// optimum: the backtrack must pick the reference's candidate at every stage.
func TestExactMatchesReferenceSmallIntegers(t *testing.T) {
	m := cost.NewModel(workload.MobileNet())
	pareto := m.ParetoSet(cost.DefaultGrid())
	rng := sim.NewRand(43)
	for c := 0; c < 2000; c++ {
		pl, err := New(m, SHAStages(1<<(2+rng.Intn(4)), 2, 1), pareto)
		if err != nil {
			t.Fatal(err)
		}
		for k := range pl.stageCost {
			pl.warmTime[k] = float64(1 + rng.Intn(4))
			pl.coldTime[k] = float64(1 + rng.Intn(4))
			pl.stageCost[k] = float64(rng.Intn(4))
		}
		buckets := 1 + rng.Intn(3*len(pl.Stages))
		checkExactMatchesRef(t, pl, float64(buckets), buckets)
	}
}

// TestPortableExactPath re-runs the reference tests with the AVX sweeps
// switched off, so an AVX host covers the portable path too.
func TestPortableExactPath(t *testing.T) {
	if !useAVX {
		t.Skip("the portable path is the only path on this host")
	}
	useAVX = false
	defer func() { useAVX = true }()
	TestExactMatchesReference(t)
	TestExactMatchesReferenceOnTies(t)
	TestExactMatchesReferenceSmallIntegers(t)
	TestPlannerMatchesReference(t)
}
