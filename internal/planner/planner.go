// Package planner implements resource partitioning across the stages of an
// early-stopping hyperparameter-tuning run (§III-C): the optimal-static warm
// start, the cluster-style Fixed baseline, and the paper's greedy heuristic
// planner (Algorithm 1) that recycles resources from early stages — where
// most trials are terminated — to later stages, under a budget or a QoS
// constraint. The underlying optimization is a multiple-choice knapsack
// (NP-hard), which the heuristic approximates while guaranteeing the result
// is never worse than the optimal static plan it starts from.
package planner

import (
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/storage"
)

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
}

// Clone returns a deep copy of the plan.
func (p Plan) Clone() Plan {
	s := make([]cost.Allocation, len(p.Stages))
	copy(s, p.Stages)
	return Plan{Stages: s}
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
type Planner struct {
	Model  *cost.Model
	Stages []Stage
	// P is the Pareto set, sorted by ascending epoch time (descending
	// cost); index 0 is the fastest/priciest allocation.
	P []cost.Point
	// Delta is the minimum relative JCT improvement to keep iterating.
	Delta float64

	// Evaluated counts candidate evaluations (the scheduling-overhead
	// metric of §IV-G).
	Evaluated int

	// Obs, when set, records each plan's per-stage allocation decisions
	// and summary as trace events (timestamped by stage index — plans are
	// structural, not temporal). Nil disables recording.
	Obs *obs.Observer
}

// New returns a planner over the model's Pareto set for the given stages.
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
	return &Planner{Model: m, Stages: stages, P: pareto, Delta: 0.01}, nil
}

// index returns the position of a in P, or -1.
func (pl *Planner) index(a cost.Allocation) int {
	for i, p := range pl.P {
		if p.Alloc == a {
			return i
		}
	}
	return -1
}

// waves returns how many admission waves stage i needs under allocation a:
// q_i concurrent trials of n functions each must fit the concurrency cap.
func (pl *Planner) waves(i int, a cost.Allocation) int {
	cap := pl.Model.Limits.MaxConcurrency
	need := pl.Stages[i].Trials * a.N
	w := (need + cap - 1) / cap
	if w < 1 {
		w = 1
	}
	return w
}

// StageTime returns the wall time of stage i under allocation a: per wave,
// the group start (cold for the first stage, warm afterwards — the planner
// pre-warms the next stage's sandboxes), the data load, and the epochs.
func (pl *Planner) StageTime(i int, a cost.Allocation) float64 {
	return pl.stageTimeWaves(i, a, pl.waves(i, a))
}

// StageTimeCapped is StageTime with stage concurrency capped at capN
// functions (the cluster-style Fixed baseline gives each stage an equal
// concurrency share).
func (pl *Planner) StageTimeCapped(i int, a cost.Allocation, capN int) float64 {
	if capN < a.N {
		capN = a.N
	}
	perWave := capN / a.N
	w := (pl.Stages[i].Trials + perWave - 1) / perWave
	if w < 1 {
		w = 1
	}
	return pl.stageTimeWaves(i, a, w)
}

func (pl *Planner) stageTimeWaves(i int, a cost.Allocation, waves int) float64 {
	return pl.stageTimeWavesCold(i, a, waves, i == 0)
}

func (pl *Planner) stageTimeWavesCold(i int, a cost.Allocation, waves int, cold bool) float64 {
	start := 0.02 // warm start: the previous stage's sandboxes are reused
	if cold {
		start = pl.Model.StartupEstimate(a)
	}
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
		float64(a.N)*pl.Model.Prices.ComputeOnlyCost(load, float64(a.MemMB)) +
		storage.LoadCost(pl.Model.Prices, a.N)
	return q * perTrial
}

// JCT returns T^h: the summed stage wall times (Eq. 7). A stage whose
// allocation differs from its predecessor's pays a cold start (the warm
// pool only holds sandboxes of the previous memory size); same-allocation
// stages reuse warm sandboxes.
func (pl *Planner) JCT(p Plan) float64 {
	var t float64
	for i, a := range p.Stages {
		cold := i == 0 || a.MemMB != p.Stages[i-1].MemMB
		t += pl.stageTimeWavesCold(i, a, pl.waves(i, a), cold)
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
// with Feasible=false.
func (pl *Planner) OptimalStatic(budget, qos float64) Result {
	best := Result{JCT: math.Inf(1), Cost: math.Inf(1)}
	var fallback Result
	fallbackGap := math.Inf(1)
	for _, pt := range pl.P {
		plan := Uniform(pt.Alloc, len(pl.Stages))
		jct, c := pl.JCT(plan), pl.Cost(plan)
		pl.Evaluated++
		ok := (budget <= 0 || c <= budget) && (qos <= 0 || jct <= qos)
		if ok {
			better := false
			if budget > 0 {
				better = jct < best.JCT
			} else {
				better = c < best.Cost
			}
			if better {
				best = Result{Plan: plan, JCT: jct, Cost: c, Feasible: true}
			}
			continue
		}
		gap := 0.0
		if budget > 0 && c > budget {
			gap += (c - budget) / budget
		}
		if qos > 0 && jct > qos {
			gap += (jct - qos) / qos
		}
		if gap < fallbackGap {
			fallbackGap = gap
			fallback = Result{Plan: plan, JCT: jct, Cost: c, Feasible: false}
		}
	}
	if best.Feasible {
		return best
	}
	return fallback
}

// ConcurrencyShare returns the per-stage concurrency pool of the
// cluster-based Fixed baseline: the platform cap divided evenly among the
// stages.
func (pl *Planner) ConcurrencyShare() int {
	share := pl.Model.Limits.MaxConcurrency / len(pl.Stages)
	if share < 1 {
		share = 1
	}
	return share
}

// FixedPlan implements the cluster-based baseline (§IV-B "Fixed"): the
// platform's resources are divided evenly among stages, so each stage may
// only use 1/d of the concurrency. Early stages, which host exponentially
// more trials, queue in long admission waves (resource competition), while
// late stages waste their oversized share — the failure mode Fig. 9-11
// report. The per-trial allocation is the constraint's optimal static
// choice; the JCT accounts for the share-capped waves.
func (pl *Planner) FixedPlan(budget, qos float64) Result {
	static := pl.OptimalStatic(budget, qos)
	share := pl.ConcurrencyShare()
	var jct float64
	for i, a := range static.Plan.Stages {
		jct += pl.StageTimeCapped(i, a, share)
	}
	feasible := (budget <= 0 || static.Cost <= budget) && (qos <= 0 || jct <= qos)
	return Result{Plan: static.Plan, JCT: jct, Cost: static.Cost, Feasible: feasible, Evaluated: static.Evaluated}
}

// candidate mutations along the Pareto frontier. P is sorted by time
// ascending = cost descending, so higher indices are cheaper/slower
// per-epoch allocations and lower indices faster/pricier ones. Moves
// consider every position in the chosen direction — a multiple-choice
// knapsack reassignment, not just the adjacent step — because the best
// reallocation may sit across a valley (e.g. a much smaller function count
// that collapses an early stage's admission waves).
func (pl *Planner) moveCandidates(p Plan, stage int, upgrade bool) []Plan {
	idx := pl.index(p.Stages[stage])
	if idx < 0 {
		return nil
	}
	var out []Plan
	if upgrade {
		for j := idx - 1; j >= 0; j-- {
			q := p.Clone()
			q.Stages[stage] = pl.P[j].Alloc
			out = append(out, q)
		}
	} else {
		for j := idx + 1; j < len(pl.P); j++ {
			q := p.Clone()
			q.Stages[stage] = pl.P[j].Alloc
			out = append(out, q)
		}
	}
	return out
}

// earlyStages returns the stage indices considered "early" (the first half,
// where terminated trials concentrate).
func (pl *Planner) earlyStages() []int {
	d := len(pl.Stages)
	half := d / 2
	if half == 0 {
		half = 1
	}
	idxs := make([]int, 0, half)
	for i := 0; i < half; i++ {
		idxs = append(idxs, i)
	}
	return idxs
}

func (pl *Planner) lateStages() []int {
	d := len(pl.Stages)
	start := d / 2
	if start == 0 {
		start = d - 1
	}
	idxs := make([]int, 0, d-start)
	for i := start; i < d; i++ {
		idxs = append(idxs, i)
	}
	return idxs
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

// greedy is Algorithm 1 with the objective selected by which constraint is
// set: budget > 0 minimizes JCT under the budget, qos > 0 minimizes cost
// under the deadline. Both variants share the same structure:
//
//	phase 1 — recycle resources from early stages (cheapen: most of their
//	trials are terminated anyway) and reallocate the freed resources to
//	later stages (upgrade), keeping the plan inside the static plan's
//	resource envelope; iterate while the objective improves by >= Delta.
//	phase 2 — spend any remaining constraint headroom: under a budget,
//	upgrade stages (buy JCT) until the budget is used up; under a QoS
//	constraint, cheapen stages (sell slack for money) until the deadline
//	headroom is used up. Candidates that violate the constraint are
//	blacklisted (the A_2' set of Algorithm 1).
func (pl *Planner) greedy(budget, qos float64) Result {
	evalStart := pl.Evaluated
	warm := pl.OptimalStatic(budget, qos)
	staticCost := warm.Cost
	best := warm

	minJCT := budget > 0
	objective := func(r Result) float64 {
		if minJCT {
			return r.JCT
		}
		return r.Cost
	}
	withinConstraint := func(r Result) bool {
		if minJCT {
			return r.Cost <= budget
		}
		return r.JCT <= qos
	}
	// The static-plan cost envelope phase 1 must respect under a budget
	// (Algorithm 1 line 6). Under a QoS constraint the envelope is the
	// deadline itself: cheapening spends JCT slack, and upgrades only run
	// to restore feasibility.
	withinStatic := func(r Result) bool {
		if minJCT {
			return r.Cost <= staticCost*(1+1e-12)
		}
		return r.JCT <= qos
	}

	evaluate := func(p Plan) Result {
		pl.Evaluated++
		jct, c := pl.JCT(p), pl.Cost(p)
		return Result{Plan: p, JCT: jct, Cost: c}
	}

	// Phase 1 (lines 2-14).
	for iter := 0; iter < 4*len(pl.Stages); iter++ {
		recycled, ok := pl.bestMove(best, pl.earlyStages(), false, evaluate)
		if !ok {
			break
		}
		// Reallocate the freed resources to later stages. Under a budget,
		// upgrades fill the freed cost envelope; under a deadline, upgrades
		// run only to restore QoS feasibility lost to the cheapening.
		current := recycled
		if minJCT {
			for {
				next, _, ok := pl.bestMoveStage(current, pl.lateStages(), true, evaluate)
				if !ok || !withinStatic(next) {
					break
				}
				current = next
			}
		} else {
			for !withinStatic(current) {
				next, _, ok := pl.bestMoveStage(current, pl.lateStages(), true, evaluate)
				if !ok {
					break
				}
				current = next
			}
		}
		if !withinStatic(current) || !withinConstraint(current) {
			break
		}
		improvement := (objective(best) - objective(current)) / math.Max(objective(best), 1e-12)
		if improvement < pl.Delta {
			break
		}
		best = current
	}

	// Phase 2 (lines 15-25): under a budget buy speed with leftover money;
	// under a deadline sell leftover slack for savings. Candidates that
	// violate the constraint are discarded inside the move evaluation (the
	// A_2' set of Algorithm 1).
	all := make([]int, len(pl.Stages))
	for i := range all {
		all[i] = i
	}
	evaluateConstrained := func(p Plan) Result {
		r := evaluate(p)
		if !withinConstraint(r) {
			// Poison the move so it never wins the benefit ranking.
			r.JCT = math.Inf(1)
			r.Cost = math.Inf(1)
		}
		return r
	}
	for iter := 0; iter < 16*len(pl.Stages); iter++ {
		next, _, ok := pl.bestMoveStage(best, all, minJCT, evaluateConstrained)
		if !ok || math.IsInf(objective(next), 1) {
			break
		}
		improvement := (objective(best) - objective(next)) / math.Max(objective(best), 1e-12)
		if improvement < pl.Delta/10 {
			break
		}
		best = next
	}

	// Phase 3 — polish: hill-climb over all single-stage reassignments in
	// either direction. The phase-1/2 structure (recycle early, spend
	// late) reaches a good region fast; this local search closes most of
	// the remaining gap to the exact MCKP optimum (see ExactMinJCT and the
	// optimality-gap tests) while staying within the candidate-evaluation
	// budget the overhead experiments account for.
	for iter := 0; iter < 32*len(pl.Stages); iter++ {
		improved := false
		for i := range pl.Stages {
			for _, dir := range []bool{true, false} {
				for _, cand := range pl.moveCandidates(best.Plan, i, dir) {
					r := evaluate(cand)
					if !withinConstraint(r) {
						continue
					}
					if objective(r) < objective(best)*(1-pl.Delta/100) {
						best = r
						improved = true
					}
				}
			}
		}
		if !improved {
			break
		}
	}

	best.Feasible = withinConstraint(best)
	// Guarantee: never worse than the warm start (the plan is built by
	// incremental improvement on the optimal static allocation).
	if warm.Feasible && (!best.Feasible || objective(best) > objective(Result{JCT: warm.JCT, Cost: warm.Cost})) {
		best = warm
		best.Feasible = true
	}
	best.Evaluated = pl.Evaluated - evalStart
	pl.logPlan(minJCT, budget, qos, best)
	return best
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

// bestMove evaluates moving each candidate stage one step along the Pareto
// frontier — upgrade=true moves toward faster/pricier allocations, false
// toward cheaper/slower ones — and returns the move with the largest
// marginal benefit (Eq. 10 for upgrades: JCT saved per dollar added; the
// mirror for cheapening: dollars saved per second added).
func (pl *Planner) bestMove(p Result, stages []int, upgrade bool, evaluate func(Plan) Result) (Result, bool) {
	r, _, ok := pl.bestMoveStage(p, stages, upgrade, evaluate)
	return r, ok
}

func (pl *Planner) bestMoveStage(p Result, stages []int, upgrade bool, evaluate func(Plan) Result) (Result, int, bool) {
	// Two tiers: win-win moves (better in both dimensions) are preferred
	// and ranked by their objective gain; otherwise rank trades by their
	// marginal-benefit ratio (Eq. 10 / Eq. 12).
	bestBenefit := -math.Inf(1)
	bestWinWin := -math.Inf(1)
	var best Result
	bestStage := -1
	consider := func(r Result, i int) {
		var winGain, benefit float64
		if upgrade {
			if r.Cost <= p.Cost && r.JCT < p.JCT {
				winGain = p.JCT - r.JCT
			}
			benefit = (p.JCT - r.JCT) / math.Max(r.Cost-p.Cost, 1e-9)
		} else {
			if r.JCT <= p.JCT && r.Cost < p.Cost {
				winGain = p.Cost - r.Cost
			}
			benefit = (p.Cost - r.Cost) / math.Max(r.JCT-p.JCT, 1e-9)
		}
		switch {
		case winGain > 0 && winGain > bestWinWin:
			bestWinWin, best, bestStage = winGain, r, i
		case bestWinWin > 0:
			// A win-win exists; trades no longer compete.
		case benefit > bestBenefit:
			bestBenefit, best, bestStage = benefit, r, i
		}
	}
	for _, i := range stages {
		for _, cand := range pl.moveCandidates(p.Plan, i, upgrade) {
			consider(evaluate(cand), i)
		}
	}
	if bestStage < 0 {
		return Result{}, -1, false
	}
	return best, bestStage, true
}
