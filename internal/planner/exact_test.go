package planner

import (
	"math"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/workload"
)

func TestExactWithinBudget(t *testing.T) {
	pl := newPlanner(t, workload.MobileNet(), SHAStages(128, 2, 2))
	cheapest := pl.OptimalStatic(0, 1e15)
	budget := cheapest.Cost * 1.3
	res, ok := pl.ExactMinJCT(budget, 2000)
	if !ok {
		t.Fatal("exact solver found no plan under a workable budget")
	}
	if !res.Feasible || res.Cost > budget*(1+1e-9) {
		t.Errorf("exact plan cost %g exceeds budget %g", res.Cost, budget)
	}
	if len(res.Plan.Stages) != len(pl.Stages) {
		t.Errorf("plan has %d stages, want %d", len(res.Plan.Stages), len(pl.Stages))
	}
}

func TestExactNeverWorseThanGreedy(t *testing.T) {
	for _, w := range []*workload.Model{workload.LRHiggs(), workload.MobileNet(), workload.BERT()} {
		pl := newPlanner(t, w, SHAStages(128, 2, 2))
		cheapest := pl.OptimalStatic(0, 1e15)
		for _, mult := range []float64{1.1, 1.3, 1.8} {
			budget := cheapest.Cost * mult
			greedy := pl.PlanMinJCT(budget)
			exact, ok := pl.ExactMinJCT(budget, 4000)
			if !ok {
				t.Fatalf("%s x%.1f: exact found nothing", w.Name, mult)
			}
			// Allow a sliver for budget discretization (costs round up, so
			// the exact plan may skip a choice the greedy can afford).
			if exact.JCT > greedy.JCT*1.02 {
				t.Errorf("%s x%.1f: exact JCT %g worse than greedy %g", w.Name, mult, exact.JCT, greedy.JCT)
			}
		}
	}
}

func TestGreedyOptimalityGapModerate(t *testing.T) {
	// The paper argues the greedy heuristic suffices; quantify: within 25%
	// of the exact optimum across the evaluated models at a binding budget.
	for _, w := range []*workload.Model{workload.LRHiggs(), workload.MobileNet(), workload.ResNet50()} {
		pl := newPlanner(t, w, SHAStages(256, 2, 2))
		cheapest := pl.OptimalStatic(0, 1e15)
		budget := cheapest.Cost * 1.3
		greedy := pl.PlanMinJCT(budget)
		exact, ok := pl.ExactMinJCT(budget, 4000)
		if !ok {
			t.Fatalf("%s: exact found nothing", w.Name)
		}
		gap := (greedy.JCT - exact.JCT) / exact.JCT
		if gap > 0.25 {
			t.Errorf("%s: greedy optimality gap %.1f%% too large (greedy %g, exact %g)",
				w.Name, 100*gap, greedy.JCT, exact.JCT)
		}
	}
}

// TestExactImpossibleBudget: no plan fits, including the budgets whose
// cost-to-bucket quotient is NaN or overflows int.
func TestExactImpossibleBudget(t *testing.T) {
	pl := newPlanner(t, workload.LRHiggs(), SHAStages(512, 2, 2))
	for _, budget := range []float64{1e-6, 1e-300, 1e-310, 5e-324, math.NaN()} {
		if res, ok := pl.ExactMinJCT(budget, 4000); ok {
			t.Errorf("budget %g returned a plan costing %g", budget, res.Cost)
		}
	}
}

func TestExactRespectsTransitionColdStarts(t *testing.T) {
	// The DP's JCT must equal the planner's own JCT evaluation of the
	// reconstructed plan (the transition-aware accounting matches).
	pl := newPlanner(t, workload.ResNet50(), SHAStages(64, 2, 2))
	cheapest := pl.OptimalStatic(0, 1e15)
	res, ok := pl.ExactMinJCT(cheapest.Cost*1.5, 3000)
	if !ok {
		t.Fatal("no plan")
	}
	if got := pl.JCT(res.Plan); got != res.JCT {
		t.Errorf("reported JCT %g != re-evaluated %g", res.JCT, got)
	}
}

func TestExactHandlesSingleStage(t *testing.T) {
	w := workload.MobileNet()
	m := cost.NewModel(w)
	pareto := m.ParetoSet(cost.DefaultGrid())
	pl, err := New(m, []Stage{{Trials: 4, Epochs: 2}}, pareto)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := pl.ExactMinJCT(1e6, 1000)
	if !ok {
		t.Fatal("single-stage exact failed")
	}
	// With an unconstrained budget the single stage picks the per-stage
	// fastest allocation.
	best := pl.StageTime(0, res.Plan.Stages[0])
	for _, p := range pareto {
		if pl.StageTime(0, p.Alloc) < best-1e-9 {
			t.Errorf("exact picked %v (%.1fs) but %v is faster (%.1fs)",
				res.Plan.Stages[0], best, p.Alloc, pl.StageTime(0, p.Alloc))
			break
		}
	}
}

// TestExactConcurrentPlanners: two planners of different sizes solve at
// once, as abl-gap's parallel cells do through the shared buffer pool, and
// each gets the result of a solve on its own.
func TestExactConcurrentPlanners(t *testing.T) {
	pls := []*Planner{
		newPlanner(t, workload.LRHiggs(), SHAStages(256, 2, 2)),
		newPlanner(t, workload.MobileNet(), SHAStages(64, 2, 2)),
	}
	budgets := make([]float64, len(pls))
	want := make([]Result, len(pls))
	for i, pl := range pls {
		budgets[i] = pl.OptimalStatic(0, 1e15).Cost * 1.3
		r, ok := pl.ExactMinJCT(budgets[i], 4000)
		if !ok {
			t.Fatalf("planner %d: exact found nothing", i)
		}
		want[i] = r
	}
	var wg sync.WaitGroup
	for i, pl := range pls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 4 {
				r, ok := pl.ExactMinJCT(budgets[i], 4000)
				if field := sameResult(r, want[i]); !ok || field != "" {
					t.Errorf("planner %d: concurrent solve differs in %q (ok %v)", i, field, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}
