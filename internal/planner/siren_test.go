package planner

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/cost"
	"repro/internal/storage"
	"repro/internal/workload"
)

// refSirenPlan is Siren's tuning plan as it stood before it became a planner
// method: the body is that code, copied verbatim, which filters the grid to
// one service and builds its own planner over a time-sorted copy. Only the
// evaluation count is added: the static plans it scored and its ladder steps.
func refSirenPlan(m *cost.Model, stages []Stage, points []cost.Point, kind storage.Kind, budget, qos float64) (Result, error) {
	pinned := pinnedGrid(points, kind)
	// The upgrade ladder below walks toward lower indices = faster
	// allocations, so the candidate list must be time-sorted.
	sort.Slice(pinned, func(i, j int) bool { return pinned[i].Time < pinned[j].Time })
	pl, err := New(m, stages, pinned)
	if err != nil {
		return Result{}, err
	}
	// Siren warm-starts from the *cheapest* plan satisfying the constraint
	// and then spends its headroom on early stages (the opposite of
	// CE-scaling's recycling), so under a budget its slack goes to trials
	// that will be terminated. Under a QoS constraint upgrades never
	// violate the deadline, so Siren's over-allocation is bounded by a
	// spending cap instead (its RL reward trades speed against cost, with
	// the documented early-stage bias).
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
	plan := res.Plan.Clone()
	costCap := math.Inf(1)
	if qos > 0 {
		costCap = res.Cost * 1.6
	}
	// Front-to-back: early stages soak up the headroom first (the bias),
	// then whatever remains trickles to later stages.
	for i := 0; i < len(stages); i++ {
		idx := refIndexOf(pinned, plan.Stages[i])
		for idx > 0 {
			trial := plan.Clone()
			trial.Stages[i] = pinned[idx-1].Alloc
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
	return Result{Plan: plan, JCT: jct, Cost: c, Feasible: feasible, Evaluated: evaluated}, nil
}

func refIndexOf(points []cost.Point, a cost.Allocation) int {
	for i, p := range points {
		if p.Alloc == a {
			return i
		}
	}
	return -1
}

// pinnedGrid returns the points of points on service kind, in their order.
func pinnedGrid(points []cost.Point, kind storage.Kind) []cost.Point {
	var out []cost.Point
	for _, p := range points {
		if p.Alloc.Storage == kind {
			out = append(out, p)
		}
	}
	return out
}

// linearModels are the four linear workloads, whose VM-PS and ElastiCache
// grids hold uniform plans that tie exactly on JCT at 4096 MB and up.
func linearModels() []*workload.Model {
	return []*workload.Model{workload.LRHiggs(), workload.SVMHiggs(), workload.LRYFCC(), workload.SVMYFCC()}
}

// TestSirenPlanMatchesReference holds SirenPlan on a grid-ordered planner to
// refSirenPlan on its time-sorted one, bit for bit, over every (model,
// service) pair a tuning table plans Siren on: all seven models on S3, and
// MobileNet on VM-PS (Fig. 16); and over the VM-PS and ElastiCache grids of
// the four linear models, where uniform plans tie exactly on JCT. The
// constraints are the tables' own: budgets of 1.1-2x the cheapest S3 static
// plan's cost, deadlines of 1.2-3x the fastest one's JCT and their
// geometric-mean deadline; plus half of each, which nothing meets.
func TestSirenPlanMatchesReference(t *testing.T) {
	type pair struct {
		w    *workload.Model
		kind storage.Kind
	}
	var pairs []pair
	for _, w := range append(workload.Evaluated(), workload.LRYFCC(), workload.SVMYFCC()) {
		pairs = append(pairs, pair{w, storage.S3})
	}
	pairs = append(pairs, pair{workload.MobileNet(), storage.VMPS})
	for _, w := range linearModels() {
		pairs = append(pairs, pair{w, storage.VMPS}, pair{w, storage.ElastiCache})
	}
	for _, p := range pairs {
		m := cost.NewModel(p.w)
		full := m.Enumerate(cost.DefaultGrid())
		for _, trials := range []int{128, 256, 512} {
			stages := SHAStages(trials, 2, 2)
			pl, err := New(m, stages, pinnedGrid(full, p.kind))
			if err != nil {
				t.Fatal(err)
			}
			s3, err := New(m, stages, pinnedGrid(full, storage.S3))
			if err != nil {
				t.Fatal(err)
			}
			cheap, fast := s3.OptimalStatic(0, 1e15), s3.OptimalStatic(1e15, 0)
			type constraint struct{ budget, qos float64 }
			cs := []constraint{{0, math.Max(math.Sqrt(fast.JCT*cheap.JCT), fast.JCT*1.05)}}
			for _, mult := range []float64{0.5, 1.1, 1.3, 1.6, 2} {
				cs = append(cs, constraint{cheap.Cost * mult, 0})
			}
			for _, mult := range []float64{0.5, 1.2, 1.5, 2, 3} {
				cs = append(cs, constraint{0, fast.JCT * mult})
			}
			for _, c := range cs {
				got := pl.SirenPlan(c.budget, c.qos)
				want, err := refSirenPlan(m, stages, full, p.kind, c.budget, c.qos)
				if err != nil {
					t.Fatal(err)
				}
				if field := sameResult(got, want); field != "" {
					t.Errorf("%s/%v %d trials, budget %g qos %g: %s differs: got %+v, reference %+v",
						p.w.Name, p.kind, trials, c.budget, c.qos, field, got, want)
				}
			}
		}
	}
}

// TestEvaluatedIsCounterGrowth: every plan rule reports as Result.Evaluated
// the plans it scored, which is how far the same call moves the reference
// planner's counter, and the planner keeps no count of its own: a second
// call reports the same number.
func TestEvaluatedIsCounterGrowth(t *testing.T) {
	m := cost.NewModel(workload.MobileNet())
	stages := SHAStages(128, 2, 2)
	pareto, err := New(m, stages, m.ParetoSet(cost.DefaultGrid()))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := New(m, stages, pinnedGrid(m.Enumerate(cost.DefaultGrid()), storage.S3))
	if err != nil {
		t.Fatal(err)
	}
	budget := grid.OptimalStatic(0, 1e15).Cost * 1.3
	qos := grid.OptimalStatic(1e15, 0).JCT * 1.5
	type rule = func(budget, qos float64) Result
	for _, pl := range []*Planner{pareto, grid} {
		ref := refPlanner{pl, new(int)}
		for name, r := range map[string]struct{ got, ref rule }{
			"OptimalStatic": {pl.OptimalStatic, ref.OptimalStatic},
			"FixedPlan":     {pl.FixedPlan, ref.FixedPlan},
			"SirenPlan":     {pl.SirenPlan, nil},
			"greedy":        {pl.greedy, ref.greedy},
		} {
			for _, c := range [][2]float64{{budget, 0}, {0, qos}} {
				res := r.got(c[0], c[1])
				if res.Evaluated == 0 {
					t.Errorf("%s (|P| = %d) under %v: Evaluated 0", name, len(pl.P), c)
				}
				if again := r.got(c[0], c[1]).Evaluated; again != res.Evaluated {
					t.Errorf("%s (|P| = %d) under %v: Evaluated %d, then %d on a second call", name, len(pl.P), c, res.Evaluated, again)
				}
				if r.ref == nil {
					continue
				}
				before := *ref.evaluated
				r.ref(c[0], c[1])
				if grew := *ref.evaluated - before; res.Evaluated != grew {
					t.Errorf("%s (|P| = %d) under %v: Evaluated %d, reference counter grew by %d", name, len(pl.P), c, res.Evaluated, grew)
				}
			}
		}
	}
}

// TestOptimalStaticIgnoresOrder: OptimalStatic picks the same uniform plan
// whatever the order of P. On the VM-PS and ElastiCache grids of the four
// linear models, uniform plans tie exactly on JCT, so a rule that kept the
// first of equals in scan order returned a plan of P's order (under twice
// the cheapest S3 cost on LR-Higgs/ElastiCache, n=40 at 4096 MB or at
// 6144 MB for the same JCT). Budgets and deadlines run 0.1-2x the S3
// references: the cheapest S3 static cost and the fastest S3 static JCT.
func TestOptimalStaticIgnoresOrder(t *testing.T) {
	stages := SHAStages(128, 2, 2)
	for _, w := range linearModels() {
		m := cost.NewModel(w)
		full := m.Enumerate(cost.DefaultGrid())
		s3, err := New(m, stages, pinnedGrid(full, storage.S3))
		if err != nil {
			t.Fatal(err)
		}
		cheap, fast := s3.OptimalStatic(0, 1e15).Cost, s3.OptimalStatic(1e15, 0).JCT
		for _, kind := range []storage.Kind{storage.VMPS, storage.ElastiCache} {
			grid := pinnedGrid(full, kind)
			sorted := slices.Clone(grid)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
			reversed := slices.Clone(grid)
			slices.Reverse(reversed)
			var pls []*Planner
			for _, points := range [][]cost.Point{grid, sorted, reversed} {
				pl, err := New(m, stages, points)
				if err != nil {
					t.Fatal(err)
				}
				pls = append(pls, pl)
			}
			for _, mult := range []float64{0.1, 0.5, 0.9, 2} {
				for _, c := range [][2]float64{{cheap * mult, 0}, {0, fast * mult}} {
					want := pls[0].OptimalStatic(c[0], c[1])
					for i, pl := range pls[1:] {
						if field := sameResult(pl.OptimalStatic(c[0], c[1]), want); field != "" {
							t.Errorf("%s/%v budget %g qos %g: %s differs between the grid order and order %d",
								w.Name, kind, c[0], c[1], field, i+1)
						}
					}
				}
			}
		}
	}
}
