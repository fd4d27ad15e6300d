package planner

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/faas"
	"repro/internal/workload"
)

// refPlanner is Algorithm 1 as it stood before plans became index vectors
// scored from the per-(stage, allocation) table: every candidate a cloned
// []cost.Allocation plan, found in P by a linear scan and scored by the
// exported JCT and Cost. The method bodies are that code, copied verbatim;
// only the receiver type and the spelling of the account's concurrency cap
// (now the constant faas.MaxConcurrency) differ. The planner must reproduce it bit for
// bit: the same plans, the same float64 bits of JCT and cost, the same
// feasibility and the same evaluation counts, which the reference keeps in
// its own counter.
type refPlanner struct {
	*Planner
	evaluated *int
}

func (pl refPlanner) index(a cost.Allocation) int {
	for i, p := range pl.P {
		if p.Alloc == a {
			return i
		}
	}
	return -1
}

func (pl refPlanner) OptimalStatic(budget, qos float64) Result {
	best := Result{JCT: math.Inf(1), Cost: math.Inf(1)}
	var fallback Result
	fallbackGap := math.Inf(1)
	for _, pt := range pl.P {
		plan := Uniform(pt.Alloc, len(pl.Stages))
		jct, c := pl.JCT(plan), pl.Cost(plan)
		*pl.evaluated++
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

func (pl refPlanner) FixedPlan(budget, qos float64) Result {
	static := pl.OptimalStatic(budget, qos)
	share := pl.ConcurrencyShare()
	var jct float64
	for i, a := range static.Plan.Stages {
		jct += pl.StageTimeCapped(i, a, share)
	}
	feasible := (budget <= 0 || static.Cost <= budget) && (qos <= 0 || jct <= qos)
	return Result{Plan: static.Plan, JCT: jct, Cost: static.Cost, Feasible: feasible, Evaluated: static.Evaluated}
}

// The parent's wave and stage-time formulas, which refPlanner scores with:
// ceil(q*n/cap) waves at the platform cap, and ceil(q/⌊capN/n⌋) under
// FixedPlan's share. The two agree wherever n divides the cap, as every
// allocation of the default grid does at 3000.
func (pl refPlanner) JCT(p Plan) float64 {
	var t float64
	for i, a := range p.Stages {
		cold := i == 0 || a.MemMB != p.Stages[i-1].MemMB
		t += pl.stageTimeWavesCold(i, a, pl.waves(i, a), cold)
	}
	return t
}

func (pl refPlanner) waves(i int, a cost.Allocation) int {
	cap := faas.MaxConcurrency
	need := pl.Stages[i].Trials * a.N
	w := (need + cap - 1) / cap
	if w < 1 {
		w = 1
	}
	return w
}

func (pl refPlanner) StageTimeCapped(i int, a cost.Allocation, capN int) float64 {
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

func (pl refPlanner) stageTimeWaves(i int, a cost.Allocation, waves int) float64 {
	return pl.stageTimeWavesCold(i, a, waves, i == 0)
}

func (pl refPlanner) stageTimeWavesCold(i int, a cost.Allocation, waves int, cold bool) float64 {
	start := faas.WarmStart // the previous stage's sandboxes are reused
	if cold {
		start = pl.Model.StartupEstimate(a)
	}
	perRun := start + pl.Model.LoadTime(a) + float64(pl.Stages[i].Epochs)*pl.Model.EpochTime(a)
	return float64(waves) * perRun
}

func (pl refPlanner) ConcurrencyShare() int {
	share := faas.MaxConcurrency / len(pl.Stages)
	if share < 1 {
		share = 1
	}
	return share
}

func (pl refPlanner) moveCandidates(p Plan, stage int, upgrade bool) []Plan {
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

func (pl refPlanner) earlyStages() []int {
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

func (pl refPlanner) lateStages() []int {
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

func (pl refPlanner) greedy(budget, qos float64) Result {
	evalStart := *pl.evaluated
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
	withinStatic := func(r Result) bool {
		if minJCT {
			return r.Cost <= staticCost*(1+1e-12)
		}
		return r.JCT <= qos
	}

	evaluate := func(p Plan) Result {
		*pl.evaluated++
		jct, c := pl.JCT(p), pl.Cost(p)
		return Result{Plan: p, JCT: jct, Cost: c}
	}

	// Phase 1 (lines 2-14).
	for iter := 0; iter < 4*len(pl.Stages); iter++ {
		recycled, ok := pl.bestMove(best, pl.earlyStages(), false, evaluate)
		if !ok {
			break
		}
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
		if improvement < delta {
			break
		}
		best = current
	}

	all := make([]int, len(pl.Stages))
	for i := range all {
		all[i] = i
	}
	evaluateConstrained := func(p Plan) Result {
		r := evaluate(p)
		if !withinConstraint(r) {
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
		if improvement < delta/10 {
			break
		}
		best = next
	}

	for iter := 0; iter < 32*len(pl.Stages); iter++ {
		improved := false
		for i := range pl.Stages {
			for _, dir := range []bool{true, false} {
				for _, cand := range pl.moveCandidates(best.Plan, i, dir) {
					r := evaluate(cand)
					if !withinConstraint(r) {
						continue
					}
					if objective(r) < objective(best)*(1-delta/100) {
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
	if warm.Feasible && (!best.Feasible || objective(best) > objective(Result{JCT: warm.JCT, Cost: warm.Cost})) {
		best = warm
		best.Feasible = true
	}
	best.Evaluated = *pl.evaluated - evalStart
	pl.logPlan(minJCT, budget, qos, best)
	return best
}

func (pl refPlanner) bestMove(p Result, stages []int, upgrade bool, evaluate func(Plan) Result) (Result, bool) {
	r, _, ok := pl.bestMoveStage(p, stages, upgrade, evaluate)
	return r, ok
}

func (pl refPlanner) bestMoveStage(p Result, stages []int, upgrade bool, evaluate func(Plan) Result) (Result, int, bool) {
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

func (pl refPlanner) ExactMinJCT(budget float64, buckets int) (Result, bool) {
	if buckets <= 0 {
		buckets = 2000
	}
	d := len(pl.Stages)
	unit := budget / float64(buckets)
	if unit <= 0 {
		return Result{}, false
	}

	memIdx := map[int]int{}
	var mems []int
	for _, p := range pl.P {
		if _, ok := memIdx[p.Alloc.MemMB]; !ok {
			memIdx[p.Alloc.MemMB] = len(mems)
			mems = append(mems, p.Alloc.MemMB)
		}
	}
	nm := len(mems)

	type choice struct {
		alloc    cost.Allocation
		costB    int
		timeCold float64
		timeWarm float64
		mem      int
	}
	choices := make([][]choice, d)
	for i := 0; i < d; i++ {
		for _, p := range pl.P {
			c := pl.StageCost(i, p.Alloc)
			b := int(math.Ceil(c/unit - 1e-12))
			if b > buckets {
				continue
			}
			if b < 0 {
				b = 0
			}
			w := pl.waves(i, p.Alloc)
			choices[i] = append(choices[i], choice{
				alloc:    p.Alloc,
				costB:    b,
				timeCold: pl.stageTimeWavesCold(i, p.Alloc, w, true),
				timeWarm: pl.stageTimeWavesCold(i, p.Alloc, w, false),
				mem:      memIdx[p.Alloc.MemMB],
			})
		}
		if len(choices[i]) == 0 {
			return Result{}, false
		}
	}

	const inf = math.MaxFloat64
	size := (buckets + 1) * nm
	dp := make([]float64, size)
	next := make([]float64, size)
	type parent struct{ b, m, choice int32 }
	parents := make([][]parent, d)

	idx := func(b, m int) int { return b*nm + m }

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

	plan := Plan{Stages: make([]cost.Allocation, d)}
	b, m := bestB, bestM
	for i := d - 1; i >= 0; i-- {
		p := parents[i][idx(b, m)]
		plan.Stages[i] = choices[i][p.choice].alloc
		if i > 0 {
			b, m = int(p.b), int(p.m)
		}
	}
	jct, c := pl.JCT(plan), pl.Cost(plan)
	return Result{Plan: plan, JCT: jct, Cost: c, Feasible: c <= budget*(1+1e-9)}, true
}

// sameResult reports the first field in which got differs from want: the
// plan by reflect.DeepEqual, JCT and cost by their float64 bits.
func sameResult(got, want Result) string {
	switch {
	case !reflect.DeepEqual(got.Plan, want.Plan):
		return "plan"
	case math.Float64bits(got.JCT) != math.Float64bits(want.JCT):
		return "JCT"
	case math.Float64bits(got.Cost) != math.Float64bits(want.Cost):
		return "cost"
	case got.Feasible != want.Feasible:
		return "feasibility"
	case got.Evaluated != want.Evaluated:
		return "evaluation count"
	}
	return ""
}

type refSet struct {
	name   string
	points []cost.Point
}

// refCandidateSets returns the candidate sets planners are built over: the
// Pareto set, the full Θ in grid order (fig21a's WO-pa), and the Pareto set
// followed by the full Θ, which lists every Pareto allocation twice.
func refCandidateSets(m *cost.Model) []refSet {
	pareto := m.ParetoSet(cost.DefaultGrid())
	full := m.Enumerate(cost.DefaultGrid())
	return []refSet{
		{"pareto", pareto},
		{"full", full},
		{"pareto+full", append(append([]cost.Point(nil), pareto...), full...)},
	}
}

// TestPlannerMatchesReference runs the planner and refPlanner side by side,
// each on its own Planner, over every evaluated model, every candidate set,
// four stage shapes, budgets of 0.5–10× the cheapest static plan's cost and
// deadlines of 0.5–3× the fastest static plan's JCT (feasible and not), and
// requires bit-identical results and evaluation counts.
func TestPlannerMatchesReference(t *testing.T) {
	shapes := []struct {
		name   string
		stages []Stage
	}{
		{"512x2x2", SHAStages(512, 2, 2)},
		{"32x2x2", SHAStages(32, 2, 2)},
		{"8x3x1", SHAStages(8, 3, 1)},
		{"single", []Stage{{Trials: 4, Epochs: 2}}},
	}
	for _, w := range workload.Evaluated() {
		m := cost.NewModel(w)
		for _, set := range refCandidateSets(m) {
			for _, shape := range shapes {
				got, err := New(m, shape.stages, set.points)
				if err != nil {
					t.Fatal(err)
				}
				base, _ := New(m, shape.stages, set.points)
				ref := refPlanner{base, new(int)}
				name := w.Name + "/" + set.name + "/" + shape.name
				cheapest := ref.OptimalStatic(0, 1e15).Cost
				fastest := ref.OptimalStatic(1e15, 0).JCT
				check := func(what string, g, r Result) {
					t.Helper()
					if field := sameResult(g, r); field != "" {
						t.Fatalf("%s %s: %s differs: got %+v, reference %+v", name, what, field, g, r)
					}
				}
				// The reference's static rules report no evaluations; the
				// planner's report the plans they scored, which is how far
				// they move the reference's counter.
				staticRef := func(budget, qos float64) Result {
					before := *ref.evaluated
					r := ref.OptimalStatic(budget, qos)
					r.Evaluated = *ref.evaluated - before
					return r
				}
				// The parent's Fixed plan priced its share but did not carry it.
				fixedRef := func(budget, qos float64) Result {
					before := *ref.evaluated
					r := ref.FixedPlan(budget, qos)
					r.Plan.ConcurrencyCap = ref.ConcurrencyShare()
					r.Evaluated = *ref.evaluated - before
					return r
				}
				for _, mult := range []float64{0.5, 1, 1.3, 2, 10} {
					budget := cheapest * mult
					check("PlanMinJCT", got.PlanMinJCT(budget), ref.greedy(budget, 0))
					check("OptimalStatic budget", got.OptimalStatic(budget, 0), staticRef(budget, 0))
					check("FixedPlan budget", got.FixedPlan(budget, 0), fixedRef(budget, 0))
					if set.name == "pareto" || len(shape.stages) <= 3 { // the DP is slow on Θ
						g, gok := got.ExactMinJCT(budget, 400)
						r, rok := ref.ExactMinJCT(budget, 400)
						if gok != rok {
							t.Fatalf("%s ExactMinJCT x%g: ok %v, reference %v", name, mult, gok, rok)
						}
						check("ExactMinJCT", g, r)
					}
				}
				for _, mult := range []float64{0.5, 1, 1.5, 3} {
					qos := fastest * mult
					check("PlanMinCost", got.PlanMinCost(qos), ref.greedy(0, qos))
					check("OptimalStatic deadline", got.OptimalStatic(0, qos), staticRef(0, qos))
					check("FixedPlan deadline", got.FixedPlan(0, qos), fixedRef(0, qos))
				}
			}
		}
	}
}
