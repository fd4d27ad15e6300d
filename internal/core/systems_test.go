package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/scheduler"
	"repro/internal/storage"
	"repro/internal/trainer"
	"repro/internal/workload"
)

// The comparison systems of the package doc, each an Options value and a
// plan rule.

// pinnedGrid is the candidate set of the LambdaML, Siren and Cirrus tuning
// plans: one service's unpruned grid.
func pinnedGrid(kind storage.Kind) Options {
	return Options{PinStorage: &kind, DisablePareto: true}
}

func mustPlanner(t *testing.T, f *Framework, stages []planner.Stage, opt Options) *planner.Planner {
	t.Helper()
	pl, err := f.Planner(stages, opt)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestFilterByStorage(t *testing.T) {
	f := New(workload.LRHiggs())
	for _, kind := range storage.Kinds() {
		sub := filterByStorage(f.Full, kind)
		for _, p := range sub {
			if p.Alloc.Storage != kind {
				t.Fatalf("filter leaked %v into %v subset", p.Alloc.Storage, kind)
			}
		}
		if len(sub) == 0 {
			t.Errorf("no %v allocations for LR", kind)
		}
	}
}

func TestLambdaMLPlanUsesOnlyS3(t *testing.T) {
	f := New(workload.MobileNet())
	res := mustPlanner(t, f, planner.SHAStages(512, 2, 2), pinnedGrid(storage.S3)).OptimalStatic(1e9, 0)
	for i, a := range res.Plan.Stages {
		if a.Storage != storage.S3 {
			t.Errorf("stage %d uses %v, want S3", i, a.Storage)
		}
		if a != res.Plan.Stages[0] {
			t.Error("LambdaML plan is not static")
		}
	}
}

// TestSirenPlanBiasesEarlyStages: under the tuning tables' budget, 30% above
// the cheapest static plan, Siren spends its headroom on the first stage
// first: that stage runs faster than in the static plan it starts from, and
// no stage runs slower.
func TestSirenPlanBiasesEarlyStages(t *testing.T) {
	f := New(workload.MobileNet())
	pl := mustPlanner(t, f, planner.SHAStages(128, 2, 2), pinnedGrid(storage.S3))
	static := pl.OptimalStatic(0, 1e15)
	siren := checkSirenPlan(t, pl, storage.S3, static.Cost*1.3)
	for i, a := range siren.Plan.Stages {
		if pl.StageTime(i, a) > pl.StageTime(i, static.Plan.Stages[i]) {
			t.Errorf("stage %d runs slower than in the static plan", i+1)
		}
	}
	if pl.StageTime(0, siren.Plan.Stages[0]) >= pl.StageTime(0, static.Plan.Stages[0]) {
		t.Error("Siren did not upgrade the first stage; bias missing")
	}
}

func TestSirenPlanPinnedVMPS(t *testing.T) {
	f := New(workload.MobileNet())
	pl := mustPlanner(t, f, planner.SHAStages(128, 2, 2), pinnedGrid(storage.VMPS))
	checkSirenPlan(t, pl, storage.VMPS, pl.OptimalStatic(1e9, 0).Cost*1.4)
}

// checkSirenPlan plans Siren on pl, pinned to kind, under budget: the plan
// keeps to both.
func checkSirenPlan(t *testing.T, pl *planner.Planner, kind storage.Kind, budget float64) planner.Result {
	t.Helper()
	siren := pl.SirenPlan(budget, 0)
	if siren.Cost > budget*(1+1e-9) {
		t.Errorf("Siren plan cost %g violates budget %g", siren.Cost, budget)
	}
	for _, a := range siren.Plan.Stages {
		if a.Storage != kind {
			t.Fatalf("Siren pinned to %v used %v", kind, a.Storage)
		}
	}
	return siren
}

// TestStaticPlanPinnedEachService: every service of a small model has a
// pinned static plan, VM-PS (Cirrus's) included, and it stays pinned.
func TestStaticPlanPinnedEachService(t *testing.T) {
	f := New(workload.LRHiggs())
	for _, kind := range storage.Kinds() {
		res := mustPlanner(t, f, planner.SHAStages(64, 2, 2), pinnedGrid(kind)).OptimalStatic(1e9, 0)
		for _, a := range res.Plan.Stages {
			if a.Storage != kind {
				t.Fatalf("pinned %v plan used %v", kind, a.Storage)
			}
		}
	}
}

// TestPlansErrorWithoutCandidates: BERT's model exceeds DynamoDB's item
// limit, so its pinned grid is empty and no planner is built over it.
func TestPlansErrorWithoutCandidates(t *testing.T) {
	f := New(workload.BERT())
	if _, err := f.Planner(planner.SHAStages(64, 2, 2), pinnedGrid(storage.DynamoDB)); err == nil {
		t.Error("an empty pinned set should error")
	}
}

// TestOneCandidateSetPerSystem: for each system's options, the planner
// Planner builds searches exactly the allocations its training session's
// scheduler searches.
func TestOneCandidateSetPerSystem(t *testing.T) {
	f := New(workload.MobileNet())
	s3, vmps := storage.S3, storage.VMPS
	for name, opt := range map[string]Options{
		"CE-scaling": {},
		"Cirrus*":    {PinStorage: &vmps, DisableDelayedRestart: true},
		"Siren":      {PinStorage: &s3, DisablePareto: true, DisableDelayedRestart: true, Variant: scheduler.Siren},
		"WO-pa":      {DisablePareto: true},
	} {
		want := allocs(mustPlanner(t, f, planner.SHAStages(64, 2, 2), opt).P)
		// What Session hands its scheduler.
		if got := allocs(f.candidates(opt)); !slices.Equal(got, want) {
			t.Errorf("%s: the session searches %d allocations, the planner %d, or other ones", name, len(got), len(want))
		}
		opt.Budget, opt.Seed = 1e9, 1
		sched, _, _, err := f.Session(opt)
		if err != nil {
			t.Fatal(err)
		}
		// Initial made one selection over the scheduler's candidates,
		// charged 0.05 s each: one candidate off is 0.05 s off.
		if wantS := cost.EstimateSeconds * float64(len(want)); math.Abs(sched.PlanningSeconds-wantS) > 1e-9 {
			t.Errorf("%s: the scheduler's selection charged %g s, the planner's %d candidates %g s", name, sched.PlanningSeconds, len(want), wantS)
		}
	}
}

// TestCandidateSetsHoldEachAllocationOnce: a scheduler names the point it is
// on by its index in its candidate set, and its decisions carry the point's
// allocation, which names that point only if no allocation appears twice.
// Every set Session and Planner build — the shared Pareto frontier, the
// full enumeration, and each storage kind pinned with and without Pareto
// pruning — holds each allocation once, on the default grid and on
// abl-pocket's extended one.
func TestCandidateSetsHoldEachAllocationOnce(t *testing.T) {
	extended := cost.DefaultGrid()
	extended.Storages = storage.ExtendedKinds()
	for _, w := range append(workload.Evaluated(), workload.LRYFCC(), workload.SVMYFCC()) {
		f := New(w)
		for _, fw := range []*Framework{f, f.WithGrid(extended)} {
			sets := map[string][]cost.Point{}
			opts := map[string]Options{"pareto": {}, "full": {DisablePareto: true}}
			for _, k := range fw.Grid.Storages {
				opts["pinned "+k.String()] = Options{PinStorage: &k}
				opts["pinned unpruned "+k.String()] = Options{PinStorage: &k, DisablePareto: true}
			}
			for name, opt := range opts {
				sets[name] = fw.candidates(opt)
			}
			if len(sets["full"]) == 0 {
				t.Fatalf("%s over %d storages: empty enumeration", w.Name, len(fw.Grid.Storages))
			}
			for name, set := range sets {
				seen := make(map[cost.Allocation]bool, len(set))
				for _, p := range set {
					if seen[p.Alloc] {
						t.Errorf("%s over %d storages: %s set holds %v twice", w.Name, len(fw.Grid.Storages), name, p.Alloc)
					}
					seen[p.Alloc] = true
				}
			}
		}
	}
}

// allocs returns the allocations of points in a canonical order.
func allocs(points []cost.Point) []cost.Allocation {
	out := make([]cost.Allocation, len(points))
	for i, p := range points {
		out[i] = p.Alloc
	}
	slices.SortFunc(out, func(a, b cost.Allocation) int {
		if a.Storage != b.Storage {
			return int(a.Storage) - int(b.Storage)
		}
		if a.MemMB != b.MemMB {
			return a.MemMB - b.MemMB
		}
		return a.N - b.N
	})
	return out
}

// Modified Cirrus (§IV-C) is Algorithm 2's session pinned to one storage
// service with immediate restarts, as the package doc defines it.

func TestModifiedCirrusPinnedToVMPS(t *testing.T) { checkCirrusPinned(t, storage.VMPS) }

func TestModifiedCirrusPinnedS3(t *testing.T) { checkCirrusPinned(t, storage.S3) }

// checkCirrusPinned runs modified Cirrus on kind: its initial allocation and
// every epoch Train runs stay on that service, and every switch restarts
// immediately. The $12 budget binds on S3 and VM-PS, so the session does
// switch.
func checkCirrusPinned(t *testing.T, kind storage.Kind) {
	t.Helper()
	f := New(workload.MobileNet())
	opt := Options{Budget: 12, Seed: 7, PinStorage: &kind, DisableDelayedRestart: true}
	_, alloc, _, err := f.Session(opt)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Storage != kind {
		t.Fatalf("initial storage = %v, want %v", alloc.Storage, kind)
	}
	r := trainer.NewRunner(6)
	o := obs.New()
	r.SetObserver(o)
	out, err := f.Train(opt, r)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Result.Converged {
		t.Fatal("modified Cirrus did not converge")
	}
	for _, e := range out.Result.Trace {
		if e.Alloc.Storage != kind {
			t.Fatalf("epoch %d ran on %v, want %v", e.Epoch, e.Alloc.Storage, kind)
		}
	}
	if o.Stats().Counter("trainer.switches.immediate") == 0 {
		t.Error("no switch under a binding budget")
	}
	if got := o.Stats().Counter("trainer.switches.delayed"); got != 0 {
		t.Errorf("%g delayed switches, want 0", got)
	}
	if o.Stats().Counter("scheduler.decisions") == 0 {
		t.Error("observed runner recorded no scheduler decisions")
	}
}
