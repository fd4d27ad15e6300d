package planner

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/workload"
)

// FuzzPlanner: Algorithm 1 and the exact solver on fuzzed SHA shapes and
// constraints, NaN, infinite and subnormal ones included. Nothing panics, an
// exact plan is within its budget and equals refExactMinJCT's (ok, plan, JCT
// and cost bits), and a greedy plan reported feasible meets its constraint.
// A constraint <= 0 is unset to the planner, so the greedy properties are
// checked only for positive ones. The seed corpus under
// testdata/fuzz holds NaN, 1e-300, subnormal and +Inf constraints, and one
// binding budget and deadline.
func FuzzPlanner(f *testing.F) {
	type frontier struct {
		m      *cost.Model
		pareto []cost.Point
	}
	var models []frontier
	for _, w := range workload.Evaluated() {
		m := cost.NewModel(w)
		models = append(models, frontier{m, m.ParetoSet(cost.DefaultGrid())})
	}
	f.Fuzz(func(t *testing.T, model uint8, trials uint16, eta, epochs uint8, budget, qos float64) {
		fr := models[int(model)%len(models)]
		pl, err := New(fr.m, SHAStages(int(trials), int(eta), int(epochs)), fr.pareto)
		if err != nil {
			return // no stages, or stages of zero epochs
		}
		// Feasible allows the exact plan the 1e-9 relative slack of its
		// bucket rounding.
		if res, ok := pl.ExactMinJCT(budget, 256); ok && !res.Feasible {
			t.Fatalf("ExactMinJCT(%g) = ok with a plan costing %g", budget, res.Cost)
		}
		checkExactMatchesRef(t, pl, budget, 256)
		if res := pl.PlanMinJCT(budget); budget > 0 && res.Feasible && !(res.Cost <= budget) {
			t.Fatalf("PlanMinJCT(%g) is feasible at cost %g", budget, res.Cost)
		}
		if res := pl.PlanMinCost(qos); qos > 0 && res.Feasible && !(res.JCT <= qos) {
			t.Fatalf("PlanMinCost(%g) is feasible at JCT %g", qos, res.JCT)
		}
	})
}
