package planner

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/faas"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestGreedyRespectsRandomBudgets: for any budget above the cheapest static
// plan, the greedy result is feasible and never worse than the optimal
// static plan within that budget.
func TestGreedyRespectsRandomBudgets(t *testing.T) {
	pl := newPlanner(t, workload.MobileNet(), SHAStages(128, 2, 2))
	cheapest := pl.OptimalStatic(0, 1e15)
	if err := quick.Check(func(raw uint16) bool {
		mult := 1.05 + float64(raw)/65535*2 // 1.05x .. 3.05x
		budget := cheapest.Cost * mult
		res := pl.PlanMinJCT(budget)
		if !res.Feasible || res.Cost > budget*(1+1e-9) {
			return false
		}
		static := pl.OptimalStatic(budget, 0)
		return res.JCT <= static.JCT*(1+1e-9)
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestGreedyRespectsRandomDeadlines mirrors the budget property for the
// cost-minimization variant.
func TestGreedyRespectsRandomDeadlines(t *testing.T) {
	pl := newPlanner(t, workload.MobileNet(), SHAStages(128, 2, 2))
	fastest := pl.OptimalStatic(1e15, 0)
	if err := quick.Check(func(raw uint16) bool {
		mult := 1.1 + float64(raw)/65535*3 // 1.1x .. 4.1x
		qos := fastest.JCT * mult
		res := pl.PlanMinCost(qos)
		if !res.Feasible || res.JCT > qos*(1+1e-9) {
			return false
		}
		static := pl.OptimalStatic(0, qos)
		return res.Cost <= static.Cost*(1+1e-9)
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestJCTAdditivity: the plan JCT equals the sum of its transition-aware
// stage times for random plans.
func TestJCTAdditivity(t *testing.T) {
	pl := newPlanner(t, workload.LRHiggs(), SHAStages(64, 2, 2))
	rng := sim.NewRand(17)
	for trial := 0; trial < 50; trial++ {
		p := Uniform(pl.P[0].Alloc, len(pl.Stages))
		for i := range p.Stages {
			p.Stages[i] = pl.P[rng.Intn(len(pl.P))].Alloc
		}
		var sum float64
		for i, a := range p.Stages {
			cold := i == 0 || a.MemMB != p.Stages[i-1].MemMB
			sum += pl.stageTime(i, a, faas.MaxConcurrency, cold)
		}
		if got := pl.JCT(p); math.Abs(got-sum) > 1e-9*sum {
			t.Fatalf("JCT %g != stage sum %g", got, sum)
		}
	}
}

// TestCostAdditivityAndMonotonicity: plan cost sums stage costs, and every
// stage cost grows with the trial count.
func TestCostAdditivityAndMonotonicity(t *testing.T) {
	plSmall := newPlanner(t, workload.ResNet50(), []Stage{{Trials: 8, Epochs: 2}, {Trials: 4, Epochs: 2}})
	plBig := newPlanner(t, workload.ResNet50(), []Stage{{Trials: 16, Epochs: 2}, {Trials: 8, Epochs: 2}})
	for _, pt := range plSmall.P {
		small := plSmall.StageCost(0, pt.Alloc)
		big := plBig.StageCost(0, pt.Alloc)
		if big <= small {
			t.Fatalf("%v: doubling trials did not raise stage cost (%g vs %g)", pt.Alloc, small, big)
		}
	}
}

// TestMoveCandidatesDirections: from every point of the Pareto set, the
// index range an upgrade scans holds only strictly faster per-epoch
// allocations and the range a cheapening scans only strictly cheaper ones,
// and together they cover every other point.
func TestMoveCandidatesDirections(t *testing.T) {
	pl := newPlanner(t, workload.MobileNet(), SHAStages(32, 2, 2))
	for j, at := range pl.P {
		seen := 1
		for k, step := pl.moves(int32(j), true); k >= 0 && k < len(pl.P); k += step {
			if seen++; pl.P[k].Time >= at.Time {
				t.Fatalf("upgrade from %v proposed %v, not faster", at.Alloc, pl.P[k].Alloc)
			}
		}
		for k, step := pl.moves(int32(j), false); k >= 0 && k < len(pl.P); k += step {
			if seen++; pl.P[k].Cost >= at.Cost {
				t.Fatalf("cheapen from %v proposed %v, not cheaper", at.Alloc, pl.P[k].Alloc)
			}
		}
		if seen != len(pl.P) {
			t.Fatalf("moves from %v cover %d of %d points", at.Alloc, seen, len(pl.P))
		}
	}
}

// TestConcurrencyShareNeverFaster: a concurrency share can only slow a
// stage, and so a plan.
func TestConcurrencyShareNeverFaster(t *testing.T) {
	pl := newPlanner(t, workload.LRHiggs(), SHAStages(512, 2, 2))
	share := pl.FixedPlan(0, 1e15).Plan.ConcurrencyCap
	if err := quick.Check(func(si, pi uint8) bool {
		i := int(si) % len(pl.Stages)
		a := pl.P[int(pi)%len(pl.P)].Alloc
		capped := Uniform(a, len(pl.Stages))
		capped.ConcurrencyCap = share
		return pl.stageTime(i, a, share, i == 0) >= pl.StageTime(i, a)-1e-9 &&
			pl.JCT(capped) >= pl.JCT(Uniform(a, len(pl.Stages)))-1e-9
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
