package planner

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/workload"
)

func benchPlanner(b *testing.B) *Planner {
	b.Helper()
	m := cost.NewModel(workload.MobileNet())
	pareto := m.ParetoSet(cost.DefaultGrid())
	pl, err := New(m, SHAStages(256, 2, 2), pareto)
	if err != nil {
		b.Fatal(err)
	}
	return pl
}

func BenchmarkPlanMinJCT(b *testing.B) {
	pl := benchPlanner(b)
	budget := pl.OptimalStatic(0, 1e15).Cost * 1.3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := pl.PlanMinJCT(budget); !res.Feasible {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkPlanMinJCTFull is the full-Θ regime of fig21a's WO-pa variant:
// Algorithm 1 over every feasible allocation of the grid, not the Pareto set.
func BenchmarkPlanMinJCTFull(b *testing.B) {
	m := cost.NewModel(workload.MobileNet())
	pl, err := New(m, SHAStages(256, 2, 2), m.Enumerate(cost.DefaultGrid()))
	if err != nil {
		b.Fatal(err)
	}
	budget := pl.OptimalStatic(0, 1e15).Cost * 1.3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := pl.PlanMinJCT(budget); !res.Feasible {
			b.Fatal("infeasible")
		}
	}
}

// TestPlanMinJCTBoundedAllocs: a greedy run allocates its two index plans
// and the returned plan — a count independent of how many candidates it
// scores. Before candidates were scored from the plan evaluation table,
// every candidate was a cloned plan in a fresh slice of plans: this run
// (14 stages, 29 Pareto points) made 14,354 allocations for its 10,747
// evaluations; it now makes 3.
func TestPlanMinJCTBoundedAllocs(t *testing.T) {
	pl := newPlanner(t, workload.MobileNet(), paperStages())
	budget := pl.OptimalStatic(0, 1e15).Cost * 1.3
	if n := pl.PlanMinJCT(budget).Evaluated; n < 1000 {
		t.Fatalf("the gate needs a run scoring thousands of candidates; this one scored %d", n)
	}
	if allocs := testing.AllocsPerRun(20, func() { pl.PlanMinJCT(budget) }); allocs > 8 {
		t.Errorf("PlanMinJCT made %.0f allocations per run; want at most 8", allocs)
	}
}

func BenchmarkExactMinJCT(b *testing.B) {
	pl := benchPlanner(b)
	budget := pl.OptimalStatic(0, 1e15).Cost * 1.3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := pl.ExactMinJCT(budget, 2000); !ok {
			b.Fatal("no plan")
		}
	}
}
