// Package planner implements resource partitioning across the stages of an
// early-stopping hyperparameter-tuning run (§III-C): the optimal-static warm
// start (LambdaML's and Cirrus's plan), the cluster-style Fixed baseline,
// Siren's early-stage-biased plan, and the paper's greedy heuristic
// planner (Algorithm 1) that recycles resources from early stages — where
// most trials are terminated — to later stages, under a budget or a QoS
// constraint. The underlying optimization is a multiple-choice knapsack
// (NP-hard), which the heuristic approximates while guaranteeing the result
// is never worse than the optimal static plan it starts from.
package planner

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/cost"
	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/pricing"
	"repro/internal/storage"
)

// delta is Algorithm 1's minimum relative improvement to keep iterating:
// phase 1 stops below delta, phase 2 below delta/10 and the polish below
// delta/100.
const delta = 0.01

// Stage describes one SHA stage: q_i surviving trials running r_i epochs.
type Stage struct {
	Trials int // q_i
	Epochs int // r_i
}

// SHAStages builds the successive-halving stage structure: trials0 trials
// reduced by factor eta per stage until two remain, each stage running
// epochsPerStage epochs (the paper: 16384 trials, eta 2, 14 stages, 2
// epochs each).
func SHAStages(trials0, eta, epochsPerStage int) []Stage {
	if eta < 2 {
		eta = 2
	}
	var out []Stage
	for q := trials0; q >= 2; q /= eta {
		out = append(out, Stage{Trials: q, Epochs: epochsPerStage})
		if q == 2 {
			break
		}
	}
	return out
}

// Plan assigns one allocation to every stage.
type Plan struct {
	Stages []cost.Allocation
	// ConcurrencyCap, when positive, limits every stage's concurrent
	// functions below the platform cap (the cluster-based Fixed baseline
	// gives every stage an equal 1/d share); 0 is the platform cap.
	ConcurrencyCap int
}

// Clone returns a deep copy of the plan.
func (p Plan) Clone() Plan {
	s := make([]cost.Allocation, len(p.Stages))
	copy(s, p.Stages)
	return Plan{Stages: s, ConcurrencyCap: p.ConcurrencyCap}
}

// Cap returns the concurrency cap p runs under on a platform capped at
// platform functions.
func (p Plan) Cap(platform int) int {
	if p.ConcurrencyCap > 0 && p.ConcurrencyCap < platform {
		return p.ConcurrencyCap
	}
	return platform
}

// Waves is the admission-wave rule, priced by the planner and executed by
// the tuner: a stage of trials trials, each a group of n functions, admits
// perWave = ⌊cap/n⌋ trials at a time (at least one), so it runs in
// ceil(trials/perWave) waves (at least one).
func Waves(trials, n, cap int) (waves, perWave int) {
	perWave = max(cap/n, 1)
	return max((trials+perWave-1)/perWave, 1), perWave
}

// Uniform returns a plan using allocation a for all d stages.
func Uniform(a cost.Allocation, d int) Plan {
	s := make([]cost.Allocation, d)
	for i := range s {
		s[i] = a
	}
	return Plan{Stages: s}
}

// Planner evaluates and optimizes partitioning plans for one workload.
//
// Stages and P must not change after New: the plan evaluation table is built
// from them once (as cost.Model's tables assume of its fields).
type Planner struct {
	Model  *cost.Model
	Stages []Stage
	// P is the candidate set, normally the Pareto set sorted by ascending
	// epoch time (descending cost): index 0 is the fastest/priciest
	// allocation. fig21a's WO-pa variant and the baselines' pinned grids
	// pass a full Θ in grid order instead; moves scan it by index all the
	// same.
	P []cost.Point

	// Obs, when set, records each plan's per-stage allocation decisions
	// and summary as trace events (timestamped by stage index — plans are
	// structural, not temporal). Nil disables recording.
	Obs *obs.Observer

	// The plan evaluation table. Entry i*len(P)+j holds stage i under P[j]:
	// its wall time after a warm and after a cold start, and its cost.
	// first[j] is the lowest index of P[j].Alloc in P, where a move of a
	// stage at P[j] starts scanning.
	warmTime, coldTime, stageCost []float64
	first                         []int32
}

// New returns a planner over the candidate set pareto for the given stages
// and builds its plan evaluation table.
func New(m *cost.Model, stages []Stage, pareto []cost.Point) (*Planner, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("planner: no stages")
	}
	for i, st := range stages {
		if st.Trials < 1 || st.Epochs < 1 {
			return nil, fmt.Errorf("planner: stage %d has %d trials x %d epochs; both must be at least 1", i+1, st.Trials, st.Epochs)
		}
	}
	if len(pareto) == 0 {
		return nil, fmt.Errorf("planner: empty Pareto set")
	}
	pl := &Planner{Model: m, Stages: stages, P: pareto}
	n := len(stages) * len(pareto)
	pl.warmTime, pl.coldTime, pl.stageCost = make([]float64, n), make([]float64, n), make([]float64, n)
	pl.first = make([]int32, len(pareto))
	seen := make(map[cost.Allocation]int32, len(pareto))
	for j, pt := range pareto {
		f, ok := seen[pt.Alloc]
		if !ok {
			f = int32(j)
			seen[pt.Alloc] = f
		}
		pl.first[j] = f
	}
	cap := faas.MaxConcurrency
	for i := range stages {
		for j, pt := range pareto {
			k := i*len(pareto) + j
			pl.warmTime[k] = pl.stageTime(i, pt.Alloc, cap, false)
			pl.coldTime[k] = pl.stageTime(i, pt.Alloc, cap, true)
			pl.stageCost[k] = pl.StageCost(i, pt.Alloc)
		}
	}
	return pl, nil
}

// score is a plan's predicted JCT and cost.
type score struct{ jct, cost float64 }

// beats reports whether s is the better score than r: lower JCT, then lower
// cost on an exact JCT tie, when minJCT; lower cost, then lower JCT,
// otherwise.
func (s score) beats(r score, minJCT bool) bool {
	if minJCT {
		return s.jct < r.jct || s.jct == r.jct && s.cost < r.cost
	}
	return s.cost < r.cost || s.cost == r.cost && s.jct < r.jct
}

// eval scores plan, given as indices into P, from the table: stage by stage
// from 0, in the order and with the warm/cold rule of JCT and Cost, so the
// sums are bit-identical to theirs on the same plan.
func (pl *Planner) eval(plan []int32) score {
	var s score
	for i, j := range plan {
		k := i*len(pl.P) + int(j)
		if i == 0 || pl.P[j].Alloc.MemMB != pl.P[plan[i-1]].Alloc.MemMB {
			s.jct += pl.coldTime[k]
		} else {
			s.jct += pl.warmTime[k]
		}
		s.cost += pl.stageCost[k]
	}
	return s
}

// plan returns the allocations of an index plan.
func (pl *Planner) plan(idx []int32) Plan {
	p := Plan{Stages: make([]cost.Allocation, len(idx))}
	for i, j := range idx {
		p.Stages[i] = pl.P[j].Alloc
	}
	return p
}

// moves returns where a move of a stage now at P[j] starts scanning P and
// in which direction. P is sorted by time ascending = cost descending, so an
// upgrade (faster/pricier) scans down to index 0 and a cheapening up to the
// last index. Moves consider every position in the chosen direction — a
// multiple-choice knapsack reassignment, not just the adjacent step —
// because the best reallocation may sit across a valley (e.g. a much
// smaller function count that collapses an early stage's admission waves).
func (pl *Planner) moves(j int32, upgrade bool) (k, step int) {
	if upgrade {
		return int(pl.first[j]) - 1, -1
	}
	return int(pl.first[j]) + 1, 1
}

// StageTime returns the wall time of stage i under allocation a at the
// platform cap, with a cold start on the first stage and a warm one after.
func (pl *Planner) StageTime(i int, a cost.Allocation) float64 {
	return pl.stageTime(i, a, faas.MaxConcurrency, i == 0)
}

// stageTime is the wall time of stage i under allocation a and concurrency
// cap cap: per admission wave, the group start (a cold start, or a warm one
// when the previous stage's sandboxes are reused), the data load, and the
// epochs.
func (pl *Planner) stageTime(i int, a cost.Allocation, cap int, cold bool) float64 {
	start := faas.WarmStart // the previous stage's sandboxes are reused
	if cold {
		start = pl.Model.StartupEstimate(a)
	}
	waves, _ := Waves(pl.Stages[i].Trials, a.N, cap)
	perRun := start + pl.Model.LoadTime(a) + float64(pl.Stages[i].Epochs)*pl.Model.EpochTime(a)
	return float64(waves) * perRun
}

// StageCost returns the cost of stage i under allocation a: every trial
// bills its epochs, its data load, and its function-group invocation.
func (pl *Planner) StageCost(i int, a cost.Allocation) float64 {
	q := float64(pl.Stages[i].Trials)
	r := float64(pl.Stages[i].Epochs)
	load := pl.Model.LoadTime(a)
	perTrial := r*pl.Model.EpochCost(a) +
		pl.Model.InvocationCost(a) +
		float64(a.N)*pricing.ComputeOnlyCost(load, float64(a.MemMB)) +
		storage.LoadCost(a.N)
	return q * perTrial
}

// JCT returns T^h: the summed stage wall times (Eq. 7) under p's
// concurrency cap. A stage whose allocation differs from its predecessor's
// pays a cold start (the warm pool only holds sandboxes of the previous
// memory size); same-allocation stages reuse warm sandboxes.
func (pl *Planner) JCT(p Plan) float64 {
	cap := p.Cap(faas.MaxConcurrency)
	var t float64
	for i, a := range p.Stages {
		cold := i == 0 || a.MemMB != p.Stages[i-1].MemMB
		t += pl.stageTime(i, a, cap, cold)
	}
	return t
}

// Cost returns C^h: the summed cost over all trials of all stages (Eq. 8).
func (pl *Planner) Cost(p Plan) float64 {
	var c float64
	for i, a := range p.Stages {
		c += pl.StageCost(i, a)
	}
	return c
}

// Result carries a finished plan and its predicted metrics.
type Result struct {
	Plan     Plan
	JCT      float64
	Cost     float64
	Feasible bool // constraint satisfied by the prediction
	// Evaluated is how many candidate plans the search predicted, the
	// §IV-G overhead proxy.
	Evaluated int
}

// OptimalStatic enumerates P for the best uniform plan: minimal JCT among
// plans within budget (budget > 0), or minimal cost among plans within qos
// (qos > 0). Exactly one constraint must be positive. When nothing
// satisfies the constraint it returns the plan closest to satisfying it
// with Feasible=false: the smallest relative excess over the constraint, or,
// when no relative excess is finite (a subnormal constraint), the smallest
// absolute one. An exact tie goes to the better other metric (lower cost
// under a budget, lower JCT under a deadline), and a tie in the excess to
// the better objective, so the result does not depend on the order of P.
// The plan is always one of P.
func (pl *Planner) OptimalStatic(budget, qos float64) Result {
	j, s, ok := pl.optimalStatic(budget, qos, make([]int32, len(pl.Stages)))
	return Result{Plan: Uniform(pl.P[j].Alloc, len(pl.Stages)), JCT: s.jct, Cost: s.cost, Feasible: ok, Evaluated: len(pl.P)}
}

// optimalStatic is OptimalStatic on index plans: it returns the chosen P
// index, its uniform plan's score and feasibility, and leaves that uniform
// plan in plan.
func (pl *Planner) optimalStatic(budget, qos float64, plan []int32) (int, score, bool) {
	best, fallback := -1, -1
	var bestS, fallbackS score
	fallbackGap, fallbackExcess := math.Inf(1), math.Inf(1)
	minJCT := budget > 0
	for j := range pl.P {
		for i := range plan {
			plan[i] = int32(j)
		}
		s := pl.eval(plan)
		if (budget <= 0 || s.cost <= budget) && (qos <= 0 || s.jct <= qos) {
			if best < 0 || s.beats(bestS, minJCT) {
				best, bestS = j, s
			}
			continue
		}
		gap, excess := 0.0, 0.0
		if budget > 0 && s.cost > budget {
			gap += (s.cost - budget) / budget
			excess += s.cost - budget
		}
		if qos > 0 && s.jct > qos {
			gap += (s.jct - qos) / qos
			excess += s.jct - qos
		}
		tie := gap == fallbackGap && (!math.IsInf(gap, 1) || excess == fallbackExcess)
		if fallback < 0 || gap < fallbackGap || (math.IsInf(fallbackGap, 1) && excess < fallbackExcess) ||
			(tie && s.beats(fallbackS, minJCT)) {
			fallback, fallbackS, fallbackGap, fallbackExcess = j, s, gap, excess
		}
	}
	j, s, ok := fallback, fallbackS, false
	if best >= 0 {
		j, s, ok = best, bestS, true
	}
	for i := range plan {
		plan[i] = int32(j)
	}
	return j, s, ok
}

// FixedPlan implements the cluster-based baseline (§IV-B "Fixed"): the
// platform's resources are divided evenly among stages, so each stage may
// only use 1/d of the concurrency. Early stages, which host exponentially
// more trials, queue in long admission waves (resource competition), while
// late stages waste their oversized share — the failure mode Fig. 9-11
// report. The per-trial allocation is the constraint's optimal static
// choice; the plan carries the share as its ConcurrencyCap, and its JCT
// prices the share-capped waves.
func (pl *Planner) FixedPlan(budget, qos float64) Result {
	r := pl.OptimalStatic(budget, qos)
	r.Plan.ConcurrencyCap = max(faas.MaxConcurrency/len(pl.Stages), 1)
	r.JCT = pl.JCT(r.Plan)
	r.Feasible = (budget <= 0 || r.Cost <= budget) && (qos <= 0 || r.JCT <= qos)
	return r
}

// SirenPlan models Siren's tuning behaviour (§IV-B): its RL "tends to
// allocate more resources in the early stages". It starts from the cheapest
// static plan meeting the constraint and spends the headroom front to back,
// the opposite of CE-scaling's recycling, on trials that will mostly be
// terminated. Under a deadline a spending cap bounds the upgrades (its reward
// trades speed against cost).
func (pl *Planner) SirenPlan(budget, qos float64) Result {
	var res Result
	evaluated := 0
	if budget > 0 {
		res = pl.OptimalStatic(0, math.Inf(1)) // cheapest static
		if res.Cost > budget {
			evaluated += res.Evaluated
			res = pl.OptimalStatic(budget, 0)
		}
	} else {
		res = pl.OptimalStatic(0, qos)
	}
	evaluated += res.Evaluated
	// The upgrade ladder walks toward lower indices = faster allocations,
	// so it climbs a time-sorted copy of P.
	ladder := slices.Clone(pl.P)
	sort.Slice(ladder, func(i, j int) bool { return ladder[i].Time < ladder[j].Time })
	plan := res.Plan.Clone()
	costCap := math.Inf(1)
	if qos > 0 {
		costCap = res.Cost * 1.6
	}
	for i := range pl.Stages {
		idx := slices.IndexFunc(ladder, func(p cost.Point) bool { return p.Alloc == plan.Stages[i] })
		for idx > 0 {
			trial := plan.Clone()
			trial.Stages[i] = ladder[idx-1].Alloc
			jct, c := pl.JCT(trial), pl.Cost(trial)
			evaluated++
			// Siren's RL maximizes stage speed, so it never picks an
			// upgrade that slows the stage down (e.g. one that triggers
			// extra admission waves).
			if pl.StageTime(i, trial.Stages[i]) > pl.StageTime(i, plan.Stages[i]) {
				break
			}
			if (budget > 0 && c > budget) || (qos > 0 && jct > qos) || c > costCap {
				break
			}
			plan = trial
			idx--
		}
	}
	jct, c := pl.JCT(plan), pl.Cost(plan)
	feasible := (budget <= 0 || c <= budget) && (qos <= 0 || jct <= qos)
	return Result{Plan: plan, JCT: jct, Cost: c, Feasible: feasible, Evaluated: evaluated}
}

// PlanMinJCT runs Algorithm 1: minimize JCT subject to the budget b_c.
func (pl *Planner) PlanMinJCT(budget float64) Result {
	return pl.greedy(budget, 0)
}

// PlanMinCost runs the cost-minimization variant (Eq. 11-12): minimize cost
// subject to the QoS constraint tau.
func (pl *Planner) PlanMinCost(qos float64) Result {
	return pl.greedy(0, qos)
}

// search is one greedy run's objective and constraint, and the count of
// candidates it has evaluated.
type search struct {
	pl          *Planner
	minJCT      bool
	budget, qos float64
	evaluated   int
}

func (s *search) objective(r score) float64 {
	if s.minJCT {
		return r.jct
	}
	return r.cost
}

func (s *search) within(r score) bool {
	if s.minJCT {
		return r.cost <= s.budget
	}
	return r.jct <= s.qos
}

// eval scores plan as one candidate evaluation.
func (s *search) eval(plan []int32) score {
	s.evaluated++
	return s.pl.eval(plan)
}

// greedy is Algorithm 1 with the objective selected by which constraint is
// set: budget > 0 minimizes JCT under the budget, qos > 0 minimizes cost
// under the deadline. Both variants share the same structure:
//
//	phase 1 — recycle resources from early stages (cheapen: most of their
//	trials are terminated anyway) and reallocate the freed resources to
//	later stages (upgrade), keeping the plan inside the static plan's
//	resource envelope; iterate while the objective improves by >= delta.
//	phase 2 — spend any remaining constraint headroom: under a budget,
//	upgrade stages (buy JCT) until the budget is used up; under a QoS
//	constraint, cheapen stages (sell slack for money) until the deadline
//	headroom is used up. Candidates that violate the constraint are
//	blacklisted (the A_2' set of Algorithm 1).
//
// Plans are index vectors into P, scored from the plan evaluation table; a
// candidate is the plan with one stage's index changed in place, and the
// plan of allocations is built once, for the result.
func (pl *Planner) greedy(budget, qos float64) Result {
	d := len(pl.Stages)
	best, cur := make([]int32, d), make([]int32, d)
	warmJ, warm, warmOK := pl.optimalStatic(budget, qos, best)
	bestS := warm
	s := search{pl: pl, minJCT: budget > 0, budget: budget, qos: qos, evaluated: len(pl.P)}
	// The static-plan cost envelope phase 1 must respect under a budget
	// (Algorithm 1 line 6). Under a QoS constraint the envelope is the
	// deadline itself: cheapening spends JCT slack, and upgrades only run
	// to restore feasibility.
	withinStatic := func(r score) bool {
		if s.minJCT {
			return r.cost <= warm.cost*(1+1e-12)
		}
		return r.jct <= qos
	}
	// Early stages are the first half, where terminated trials concentrate;
	// late stages the rest (the one stage of a one-stage plan is both).
	early, late := max(d/2, 1), d/2
	if late == 0 {
		late = d - 1
	}

	// Phase 1 (lines 2-14).
	for iter := 0; iter < 4*d; iter++ {
		i, j, curS := s.bestMove(best, bestS, 0, early, false, false)
		if i < 0 {
			break
		}
		copy(cur, best)
		cur[i] = j
		// Reallocate the freed resources to later stages. Under a budget,
		// upgrades fill the freed cost envelope; under a deadline, upgrades
		// run only to restore QoS feasibility lost to the cheapening.
		for s.minJCT || !withinStatic(curS) {
			i, j, next := s.bestMove(cur, curS, late, d, true, false)
			if i < 0 || (s.minJCT && !withinStatic(next)) {
				break
			}
			cur[i], curS = j, next
		}
		if !withinStatic(curS) || !s.within(curS) {
			break
		}
		improvement := (s.objective(bestS) - s.objective(curS)) / math.Max(s.objective(bestS), 1e-12)
		if improvement < delta {
			break
		}
		copy(best, cur)
		bestS = curS
	}

	// Phase 2 (lines 15-25): under a budget buy speed with leftover money;
	// under a deadline sell leftover slack for savings. Candidates that
	// violate the constraint are discarded inside the move evaluation (the
	// A_2' set of Algorithm 1).
	for iter := 0; iter < 16*d; iter++ {
		i, j, next := s.bestMove(best, bestS, 0, d, s.minJCT, true)
		if i < 0 || math.IsInf(s.objective(next), 1) {
			break
		}
		improvement := (s.objective(bestS) - s.objective(next)) / math.Max(s.objective(bestS), 1e-12)
		if improvement < delta/10 {
			break
		}
		best[i], bestS = j, next
	}

	// Phase 3 — polish: hill-climb over all single-stage reassignments in
	// either direction. The phase-1/2 structure (recycle early, spend
	// late) reaches a good region fast; this local search closes most of
	// the remaining gap to the exact MCKP optimum (see ExactMinJCT and the
	// optimality-gap tests) while staying within the candidate-evaluation
	// budget the overhead experiments account for. Each (stage, direction)
	// sweep scans the range of best as it stood before the sweep: an
	// improvement found mid-sweep does not re-base the rest of it.
	for iter := 0; iter < 32*d; iter++ {
		improved := false
		for i := range best {
			for _, up := range [2]bool{true, false} {
				keep := best[i]
				for k, step := pl.moves(keep, up); k >= 0 && k < len(pl.P); k += step {
					best[i] = int32(k)
					r := s.eval(best)
					if s.within(r) && s.objective(r) < s.objective(bestS)*(1-delta/100) {
						keep, bestS, improved = int32(k), r, true
					}
				}
				best[i] = keep
			}
		}
		if !improved {
			break
		}
	}

	feasible := s.within(bestS)
	// Guarantee: never worse than the warm start (the plan is built by
	// incremental improvement on the optimal static allocation).
	if warmOK && (!feasible || s.objective(bestS) > s.objective(warm)) {
		for i := range best {
			best[i] = int32(warmJ)
		}
		bestS, feasible = warm, true
	}
	res := Result{Plan: pl.plan(best), JCT: bestS.jct, Cost: bestS.cost, Feasible: feasible, Evaluated: s.evaluated}
	pl.logPlan(s.minJCT, budget, qos, res)
	return res
}

// logPlan records the chosen plan: one instant per stage (timestamped by
// stage index) with the allocation assigned to it, plus a summary carrying
// the objective, constraint and evaluation count.
func (pl *Planner) logPlan(minJCT bool, budget, qos float64, r Result) {
	if !pl.Obs.Enabled() {
		return
	}
	mode := "min-cost"
	constraint := qos
	if minJCT {
		mode = "min-jct"
		constraint = budget
	}
	for i, a := range r.Plan.Stages {
		pl.Obs.Trace().InstantAt(float64(i), "planner", "planner", "stage_alloc",
			obs.I("stage", i), obs.I("trials", pl.Stages[i].Trials), obs.I("epochs", pl.Stages[i].Epochs),
			obs.I("n", a.N), obs.I("mem_mb", a.MemMB), obs.S("storage", a.Storage.String()))
	}
	pl.Obs.Trace().InstantAt(float64(len(r.Plan.Stages)), "planner", "planner", "plan",
		obs.S("mode", mode), obs.F("constraint", constraint),
		obs.F("jct", r.JCT), obs.F("cost", r.Cost),
		obs.B("feasible", r.Feasible), obs.I("evaluated", r.Evaluated))
	pl.Obs.Stats().Inc("planner.plans")
	pl.Obs.Stats().Add("planner.evaluated", float64(r.Evaluated))
}

// bestMove evaluates moving each stage in [lo, hi) of plan (scored from)
// along P — upgrade=true toward faster/pricier allocations, false toward
// cheaper/slower ones — and returns the move with the largest marginal
// benefit (Eq. 10 for upgrades: JCT saved per dollar added; the mirror for
// cheapening: dollars saved per second added) as its stage, its P index and
// the moved plan's score; stage -1 when no stage has a move. constrained
// poisons candidates outside the constraint so they never win. plan is
// left as it was.
func (s *search) bestMove(plan []int32, from score, lo, hi int, upgrade, constrained bool) (stage int, to int32, r score) {
	// Two tiers: win-win moves (better in both dimensions) are preferred
	// and ranked by their objective gain; otherwise rank trades by their
	// marginal-benefit ratio (Eq. 10 / Eq. 12).
	bestBenefit := -math.Inf(1)
	bestWinWin := -math.Inf(1)
	stage = -1
	for i := lo; i < hi; i++ {
		keep := plan[i]
		for k, step := s.pl.moves(keep, upgrade); k >= 0 && k < len(s.pl.P); k += step {
			plan[i] = int32(k)
			c := s.eval(plan)
			if constrained && !s.within(c) {
				c = score{math.Inf(1), math.Inf(1)}
			}
			var winGain, benefit float64
			if upgrade {
				if c.cost <= from.cost && c.jct < from.jct {
					winGain = from.jct - c.jct
				}
				benefit = (from.jct - c.jct) / math.Max(c.cost-from.cost, 1e-9)
			} else {
				if c.jct <= from.jct && c.cost < from.cost {
					winGain = from.cost - c.cost
				}
				benefit = (from.cost - c.cost) / math.Max(c.jct-from.jct, 1e-9)
			}
			switch {
			case winGain > 0 && winGain > bestWinWin:
				bestWinWin, r, stage, to = winGain, c, i, int32(k)
			case bestWinWin > 0:
				// A win-win exists; trades no longer compete.
			case benefit > bestBenefit:
				bestBenefit, r, stage, to = benefit, c, i, int32(k)
			}
		}
		plan[i] = keep
	}
	return stage, to, r
}
