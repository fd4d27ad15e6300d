package planner

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/faas"
	"repro/internal/workload"
)

func newPlanner(t *testing.T, w *workload.Model, stages []Stage) *Planner {
	t.Helper()
	m := cost.NewModel(w)
	pareto := m.ParetoSet(cost.DefaultGrid())
	pl, err := New(m, stages, pareto)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func paperStages() []Stage { return SHAStages(16384, 2, 2) }

func TestSHAStagesStructure(t *testing.T) {
	st := paperStages()
	if len(st) != 14 {
		t.Fatalf("stage count = %d, want 14", len(st))
	}
	if st[0].Trials != 16384 || st[13].Trials != 2 {
		t.Errorf("trial counts: first %d last %d, want 16384 and 2", st[0].Trials, st[13].Trials)
	}
	for i := 1; i < len(st); i++ {
		if st[i].Trials*2 != st[i-1].Trials {
			t.Errorf("stage %d: %d trials, want half of %d", i, st[i].Trials, st[i-1].Trials)
		}
		if st[i].Epochs != 2 {
			t.Errorf("stage %d epochs = %d, want 2", i, st[i].Epochs)
		}
	}
}

func TestSHAStagesSmall(t *testing.T) {
	st := SHAStages(8, 2, 1)
	if len(st) != 3 { // 8, 4, 2
		t.Fatalf("stage count = %d, want 3", len(st))
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	m := cost.NewModel(workload.LRHiggs())
	pareto := m.ParetoSet(cost.DefaultGrid())
	for name, tc := range map[string]struct {
		stages []Stage
		pareto []cost.Point
	}{
		"no stages":        {nil, pareto},
		"empty Pareto set": {paperStages(), nil},
		"zero epochs":      {SHAStages(8, 2, 0), pareto},
		"negative epochs":  {SHAStages(8, 2, -3), pareto},
		"zero trials":      {[]Stage{{Trials: 4, Epochs: 2}, {Trials: 0, Epochs: 2}}, pareto},
		"negative trials":  {[]Stage{{Trials: -4, Epochs: 2}}, pareto},
	} {
		if _, err := New(m, tc.stages, tc.pareto); err == nil {
			t.Errorf("%s should be rejected", name)
		}
	}
	if _, err := New(m, []Stage{{Trials: 1, Epochs: 1}}, pareto); err != nil {
		t.Errorf("a 1-trial, 1-epoch stage is the smallest valid plan: %v", err)
	}
}

func TestJCTAndCostAccumulate(t *testing.T) {
	pl := newPlanner(t, workload.LRHiggs(), SHAStages(8, 2, 2))
	a := pl.P[len(pl.P)/2].Alloc
	plan := Uniform(a, len(pl.Stages))
	var wantT, wantC float64
	for i := range pl.Stages {
		wantT += pl.StageTime(i, a)
		wantC += pl.StageCost(i, a)
	}
	if got := pl.JCT(plan); math.Abs(got-wantT) > 1e-9 {
		t.Errorf("JCT = %g, want %g", got, wantT)
	}
	if got := pl.Cost(plan); math.Abs(got-wantC) > 1e-9 {
		t.Errorf("Cost = %g, want %g", got, wantC)
	}
}

func TestWavesLimitConcurrency(t *testing.T) {
	pl := newPlanner(t, workload.LRHiggs(), paperStages())
	// Stage 0 has 16384 trials; with 10 functions each that's 163840
	// concurrent functions against a 3000 cap -> many waves.
	cap := faas.MaxConcurrency
	if w, _ := Waves(pl.Stages[0].Trials, 10, cap); w < 50 {
		t.Errorf("stage 0 waves = %d; expected heavy serialization", w)
	}
	if wl, _ := Waves(pl.Stages[len(pl.Stages)-1].Trials, 10, cap); wl != 1 {
		t.Errorf("last stage waves = %d, want 1", wl)
	}
}

func TestOptimalStaticRespectsBudget(t *testing.T) {
	pl := newPlanner(t, workload.LRHiggs(), SHAStages(64, 2, 2))
	loose := pl.OptimalStatic(0, 1e12) // effectively unconstrained QoS
	budget := loose.Cost * 2
	res := pl.OptimalStatic(budget, 0)
	if !res.Feasible {
		t.Fatal("generous budget should be feasible")
	}
	if res.Cost > budget {
		t.Errorf("static plan cost %g exceeds budget %g", res.Cost, budget)
	}
}

// TestOptimalStaticInfeasibleFallback: an impossible constraint yields an
// infeasible plan of every stage, never an empty one — also when it is so
// small (subnormal) that every relative excess overflows to +Inf, where the
// fallback is the uniform plan closest in absolute terms (the cheapest
// under a budget, the fastest under a deadline) — and the greedy planner
// starts from it instead of indexing an empty plan.
func TestOptimalStaticInfeasibleFallback(t *testing.T) {
	pl := newPlanner(t, workload.LRHiggs(), SHAStages(64, 2, 2))
	cheapest, fastest := pl.OptimalStatic(0, 1e15), pl.OptimalStatic(1e15, 0)
	for _, tc := range []struct {
		budget, qos float64
		closest     Plan // nil: not pinned
	}{
		{budget: 1e-9},
		{qos: 1e-9},
		{budget: 1e-320, closest: cheapest.Plan},
		{qos: 1e-320, closest: fastest.Plan},
	} {
		res := pl.OptimalStatic(tc.budget, tc.qos)
		if res.Feasible || len(res.Plan.Stages) != len(pl.Stages) {
			t.Errorf("budget %g qos %g: feasible %v with %d stages; want an infeasible %d-stage fallback",
				tc.budget, tc.qos, res.Feasible, len(res.Plan.Stages), len(pl.Stages))
		}
		if tc.closest.Stages != nil && !reflect.DeepEqual(res.Plan, tc.closest) {
			t.Errorf("budget %g qos %g: fallback %v, want the closest plan %v", tc.budget, tc.qos, res.Plan.Stages, tc.closest.Stages)
		}
		greedy := pl.PlanMinCost(tc.qos)
		if tc.budget > 0 {
			greedy = pl.PlanMinJCT(tc.budget)
		}
		if greedy.Feasible || len(greedy.Plan.Stages) != len(pl.Stages) {
			t.Errorf("budget %g qos %g: greedy feasible %v with %d stages", tc.budget, tc.qos, greedy.Feasible, len(greedy.Plan.Stages))
		}
	}
}

func TestGreedyNeverWorseThanStatic(t *testing.T) {
	for _, w := range []*workload.Model{workload.LRHiggs(), workload.MobileNet(), workload.BERT()} {
		pl := newPlanner(t, w, SHAStages(256, 2, 2))
		static := pl.OptimalStatic(0, 1e12)
		budget := static.Cost * 1.2
		staticB := pl.OptimalStatic(budget, 0)
		res := pl.PlanMinJCT(budget)
		if staticB.Feasible {
			if !res.Feasible {
				t.Errorf("%s: greedy infeasible though static feasible", w.Name)
			}
			if res.JCT > staticB.JCT*(1+1e-9) {
				t.Errorf("%s: greedy JCT %g worse than static %g", w.Name, res.JCT, staticB.JCT)
			}
		}
		if res.Cost > budget*(1+1e-9) {
			t.Errorf("%s: greedy cost %g violates budget %g", w.Name, res.Cost, budget)
		}
	}
}

func TestGreedyImprovesOverStatic(t *testing.T) {
	// The headline claim: with a budget near the static optimum, shifting
	// resources stage-wise must cut JCT meaningfully for at least the big
	// models. (Run at 512 trials: at 16384 trials the concurrency cap makes
	// stage 0's admission waves dominate JCT and mask the effect.)
	pl := newPlanner(t, workload.ResNet50(), SHAStages(512, 2, 2))
	static := pl.OptimalStatic(0, 1e12)
	budget := static.Cost * 1.5
	staticB := pl.OptimalStatic(budget, 0)
	res := pl.PlanMinJCT(budget)
	if res.JCT >= staticB.JCT {
		t.Errorf("greedy JCT %g did not improve on static %g", res.JCT, staticB.JCT)
	}
}

func TestGreedyCostMinRespectsQoS(t *testing.T) {
	pl := newPlanner(t, workload.MobileNet(), SHAStages(256, 2, 2))
	fast := pl.OptimalStatic(0, 1e12)
	qos := fast.JCT * 3
	res := pl.PlanMinCost(qos)
	if !res.Feasible {
		t.Fatalf("QoS %g should be satisfiable (static JCT %g)", qos, fast.JCT)
	}
	if res.JCT > qos*(1+1e-9) {
		t.Errorf("plan JCT %g violates QoS %g", res.JCT, qos)
	}
	staticQ := pl.OptimalStatic(0, qos)
	if res.Cost > staticQ.Cost*(1+1e-9) {
		t.Errorf("greedy cost %g worse than static %g", res.Cost, staticQ.Cost)
	}
}

func TestGreedyShiftsResourcesToLaterStages(t *testing.T) {
	// Fig. 11: per-trial spending in early stages must drop relative to
	// later stages compared to the static plan.
	pl := newPlanner(t, workload.LRHiggs(), paperStages())
	static := pl.OptimalStatic(0, 1e12)
	budget := static.Cost * 1.3
	res := pl.PlanMinJCT(budget)
	d := len(pl.Stages)
	perTrial := func(plan Plan, i int) float64 {
		return pl.StageCost(i, plan.Stages[i]) / float64(pl.Stages[i].Trials)
	}
	firstRatio := perTrial(res.Plan, 0) / perTrial(static.Plan, 0)
	lastRatio := perTrial(res.Plan, d-1) / perTrial(static.Plan, d-1)
	if lastRatio < firstRatio {
		t.Errorf("late-stage per-trial share should grow more: first %.3f last %.3f", firstRatio, lastRatio)
	}
}

func TestFixedPlanStarvesEarlyStages(t *testing.T) {
	pl := newPlanner(t, workload.LRHiggs(), paperStages())
	static := pl.OptimalStatic(0, 1e12)
	budget := static.Cost * 1.2
	fixed := pl.FixedPlan(budget, 0)
	staticB := pl.OptimalStatic(budget, 0)
	// The fixed plan caps every stage at 1/d of the concurrency, so its
	// early stages queue in far more admission waves and its JCT must be
	// strictly worse than the share-free static plan.
	if fixed.JCT <= staticB.JCT {
		t.Errorf("fixed JCT %g should exceed static %g (resource competition)", fixed.JCT, staticB.JCT)
	}
	share := fixed.Plan.ConcurrencyCap
	if share <= 0 || share >= faas.MaxConcurrency {
		t.Errorf("share %d should be a fraction of the cap", share)
	}
	// Early-stage slowdown dominates: the share-capped stage-0 time grows
	// by a larger factor than the last stage's.
	a := fixed.Plan.Stages[0]
	d := len(pl.Stages) - 1
	firstRatio := pl.stageTime(0, a, share, true) / pl.StageTime(0, a)
	last := fixed.Plan.Stages[d]
	lastRatio := pl.stageTime(d, last, share, false) / pl.StageTime(d, last)
	if firstRatio <= lastRatio {
		t.Errorf("stage-0 slowdown %.2f should exceed last-stage %.2f", firstRatio, lastRatio)
	}
}

func TestFixedWorseThanGreedy(t *testing.T) {
	pl := newPlanner(t, workload.MobileNet(), paperStages())
	static := pl.OptimalStatic(0, 1e12)
	budget := static.Cost * 1.3
	greedy := pl.PlanMinJCT(budget)
	fixed := pl.FixedPlan(budget, 0)
	if fixed.JCT <= greedy.JCT {
		t.Errorf("fixed JCT %g should be worse than greedy %g", fixed.JCT, greedy.JCT)
	}
}

func TestEvaluatedCounterGrows(t *testing.T) {
	pl := newPlanner(t, workload.LRHiggs(), SHAStages(64, 2, 2))
	res := pl.PlanMinJCT(pl.OptimalStatic(0, 1e12).Cost * 1.3)
	if res.Evaluated <= 0 {
		t.Error("candidate evaluation counter did not grow")
	}
}

func TestSmallerParetoMeansFewerEvaluations(t *testing.T) {
	// §IV-G: Pareto pruning is what keeps planning overhead low. Planning
	// over the full enumeration must evaluate strictly more candidates.
	w := workload.MobileNet()
	m := cost.NewModel(w)
	full := m.Enumerate(cost.DefaultGrid())
	pareto := cost.Pareto(full)
	if len(pareto) >= len(full) {
		t.Skip("grid degenerated; nothing to compare")
	}
	mkRes := func(points []cost.Point) int {
		pl, err := New(m, paperStages(), points)
		if err != nil {
			t.Fatal(err)
		}
		budget := pl.OptimalStatic(0, 1e12).Cost * 1.3
		return pl.PlanMinJCT(budget).Evaluated
	}
	// Sort the full set like a frontier for a fair comparison of moves.
	fullSorted := cost.Pareto(full)
	fullSorted = append(fullSorted, full...) // pareto first, rest after
	withPareto := mkRes(pareto)
	withFull := mkRes(fullSorted)
	if withFull <= withPareto {
		t.Errorf("full search evaluated %d <= pareto %d; pruning shows no benefit", withFull, withPareto)
	}
}

func TestPlanCloneIndependent(t *testing.T) {
	pl := newPlanner(t, workload.LRHiggs(), SHAStages(8, 2, 1))
	p := Uniform(pl.P[0].Alloc, 3)
	p.ConcurrencyCap = 7
	q := p.Clone()
	q.Stages[0] = pl.P[len(pl.P)-1].Alloc
	if p.Stages[0] == q.Stages[0] {
		t.Error("Clone aliases the original")
	}
	if q.ConcurrencyCap != 7 {
		t.Errorf("Clone dropped the concurrency cap: %d", q.ConcurrencyCap)
	}
}
