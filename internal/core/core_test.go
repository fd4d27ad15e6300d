package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/planner"
	"repro/internal/predictor"
	"repro/internal/storage"
	"repro/internal/trainer"
	"repro/internal/workload"
)

func TestNewProfilesWorkload(t *testing.T) {
	f := New(workload.MobileNet())
	if len(f.Full) == 0 || len(f.Pareto) == 0 {
		t.Fatal("profiling produced no allocations")
	}
	if len(f.Pareto) >= len(f.Full) {
		t.Error("Pareto front should prune the enumeration")
	}
}

func TestOptionsValidation(t *testing.T) {
	f := New(workload.MobileNet())
	if _, err := f.PlanHPT(planner.SHAStages(16, 2, 2), Options{}); err == nil {
		t.Error("no constraint should be rejected")
	}
	if _, err := f.PlanHPT(planner.SHAStages(16, 2, 2), Options{Budget: 1, QoS: 1}); err == nil {
		t.Error("two constraints should be rejected")
	}
	if _, err := f.Train(Options{}, trainer.NewRunner(1)); err == nil {
		t.Error("Train without constraint should be rejected")
	}
}

func TestPlanHPTGivenBudget(t *testing.T) {
	f := New(workload.MobileNet())
	res, err := f.PlanHPT(planner.SHAStages(256, 2, 2), Options{Budget: 1e9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plan.Stages) == 0 {
		t.Fatal("no plan produced")
	}
	if !res.Feasible {
		t.Error("huge budget must be feasible")
	}
}

// TestPlanHPTIgnoresDriftDelta: Options.Delta is Algorithm 2's drift
// threshold δ and leaves Algorithm 1's improvement threshold alone, so the
// plan under Delta 0.3 is the default's.
func TestPlanHPTIgnoresDriftDelta(t *testing.T) {
	f := New(workload.MobileNet())
	stages := planner.SHAStages(64, 2, 2)
	budget := 1.3 * mustPlanner(t, f, stages, Options{}).OptimalStatic(0, 1e15).Cost
	base, err := f.PlanHPT(stages, Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.PlanHPT(stages, Options{Budget: budget, Delta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, base) {
		t.Errorf("Options.Delta 0.3 moved the plan: %+v, default %+v", res, base)
	}
}

func TestRunHPTExecutesPlan(t *testing.T) {
	f := New(workload.MobileNet())
	out, err := f.RunHPT(planner.SHAStages(16, 2, 2), Options{Budget: 1e9, Seed: 3}, trainer.NewRunner(3))
	if err != nil {
		t.Fatal(err)
	}
	if out.Run.BestTrial == nil {
		t.Fatal("tuning produced no winner")
	}
	if out.Run.JCT <= 0 || out.Run.TotalCost <= 0 {
		t.Error("non-positive run metrics")
	}
}

func TestTrainConverges(t *testing.T) {
	f := New(workload.MobileNet())
	out, err := f.Train(Options{Budget: 100, Seed: 5}, trainer.NewRunner(5))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Result.Converged {
		t.Fatalf("training did not converge (loss %g)", out.Result.FinalLoss)
	}
	if out.OfflineEstimate < 1 {
		t.Error("missing offline estimate")
	}
}

func TestPinStorageRestrictsCandidates(t *testing.T) {
	f := New(workload.MobileNet())
	for _, kind := range []storage.Kind{storage.S3, storage.VMPS, storage.ElastiCache} {
		k := kind
		out, err := f.Train(Options{Budget: 100, Seed: 7, PinStorage: &k}, trainer.NewRunner(7))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for _, e := range out.Result.Trace {
			if e.Alloc.Storage != kind {
				t.Fatalf("trace used %v while pinned to %v", e.Alloc.Storage, kind)
			}
		}
	}
}

func TestPinDynamoInfeasibleForBigModels(t *testing.T) {
	f := New(workload.MobileNet())
	k := storage.DynamoDB
	if _, err := f.Train(Options{Budget: 100, Seed: 7, PinStorage: &k}, trainer.NewRunner(7)); err == nil {
		t.Error("MobileNet pinned to DynamoDB must fail (400KB item limit)")
	}
}

func TestDisableParetoUsesFullSet(t *testing.T) {
	f := New(workload.MobileNet())
	withP := f.candidates(Options{Budget: 1})
	without := f.candidates(Options{Budget: 1, DisablePareto: true})
	if len(without) <= len(withP) {
		t.Errorf("full set %d should exceed pareto %d", len(without), len(withP))
	}
}

func TestQoSDrivenTraining(t *testing.T) {
	f := New(workload.MobileNet())
	probe, err := f.Train(Options{Budget: 1e9, Seed: 9}, trainer.NewRunner(9))
	if err != nil {
		t.Fatal(err)
	}
	qos := probe.Result.JCT * 2
	out, err := f.Train(Options{QoS: qos, Seed: 9}, trainer.NewRunner(10))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Result.Converged {
		t.Fatal("QoS-driven training did not converge")
	}
	if out.Result.JCT > qos*1.2 {
		t.Errorf("JCT %g blew QoS %g", out.Result.JCT, qos)
	}
}

func TestPinnedCandidatesAreParetoOfSubset(t *testing.T) {
	f := New(workload.MobileNet())
	k := storage.S3
	pinned := f.candidates(Options{Budget: 1, PinStorage: &k})
	if len(pinned) == 0 {
		t.Fatal("no pinned candidates")
	}
	for _, p := range pinned {
		if p.Alloc.Storage != storage.S3 {
			t.Fatalf("pinned set leaked %v", p.Alloc.Storage)
		}
	}
	// The pinned set must be its own Pareto front (mutually nondominated),
	// not the intersection with the global front.
	for _, a := range pinned {
		for _, b := range pinned {
			if a.Alloc != b.Alloc && cost.Dominates(a, b) {
				t.Fatalf("pinned set member %v dominated by %v", b.Alloc, a.Alloc)
			}
		}
	}
	// And richer than the global front's S3 slice would be.
	global := 0
	for _, p := range f.Pareto {
		if p.Alloc.Storage == storage.S3 {
			global++
		}
	}
	if len(pinned) < global {
		t.Errorf("pinned frontier (%d) smaller than the global front's S3 slice (%d)", len(pinned), global)
	}
}

func TestPinnedDisableParetoGivesFullSubset(t *testing.T) {
	f := New(workload.MobileNet())
	k := storage.VMPS
	full := f.candidates(Options{Budget: 1, PinStorage: &k, DisablePareto: true})
	front := f.candidates(Options{Budget: 1, PinStorage: &k})
	if len(full) <= len(front) {
		t.Errorf("full pinned set %d should exceed its frontier %d", len(full), len(front))
	}
}

// trainAll trains one session per option on f, all at once when concurrent.
func trainAll(t *testing.T, f *Framework, opts []Options, concurrent bool) []*trainer.Result {
	t.Helper()
	out := make([]*trainer.Result, len(opts))
	errs := make([]error, len(opts))
	var wg sync.WaitGroup
	for i, opt := range opts {
		run := func() {
			var res *TrainOutcome
			res, errs[i] = f.Train(opt, trainer.NewRunner(opt.Seed+uint64(i)))
			if errs[i] == nil {
				out[i] = res.Result
			}
		}
		if !concurrent {
			run()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	return out
}

// TestSessionsShareHistoriesExactly: sessions that read their online fits
// from the framework's history tree, one after another or all at once,
// train exactly as sessions with private predictors do. Run it under -race.
func TestSessionsShareHistoriesExactly(t *testing.T) {
	vmps := storage.VMPS
	for _, w := range []*workload.Model{workload.MobileNet(), workload.LRHiggs()} {
		opts := []Options{
			{QoS: 1e15, Seed: 11},
			{Budget: 1e15, Seed: 11},
			{Budget: 30, Seed: 11},
			{Budget: 30, Seed: 11, PinStorage: &vmps, DisableDelayedRestart: true},
			{QoS: 3600, Seed: 11, Delta: 0.05},
			{Budget: 30, Seed: 12}, // another loss sequence: the tree branches
			{QoS: 1e15, Seed: 13},
		}
		private := New(w)
		private.shared = nil
		want := trainAll(t, private, opts, false)
		for _, concurrent := range []bool{false, true} {
			got := trainAll(t, New(w), opts, concurrent)
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s session %d (concurrent %v): shared-tree result differs from private", w.Name, i, concurrent)
				}
			}
		}
	}
}

// TestWithGridSharesTree: a framework over another grid profiles that grid
// as a fresh framework over it does and shares its parent's history tree.
func TestWithGridSharesTree(t *testing.T) {
	base := New(workload.MobileNet())
	g := cost.DefaultGrid()
	g.Storages = storage.ExtendedKinds()
	ext, fresh := base.WithGrid(g), profile(base.Workload, g, predictor.NewShared())
	if ext.shared != base.shared || fresh.shared == base.shared {
		t.Error("WithGrid should share the tree, a fresh framework should not")
	}
	if &ext.Pareto[0] != &fresh.Pareto[0] || !reflect.DeepEqual(ext.Full, fresh.Full) {
		t.Error("WithGrid profiled the grid differently from a fresh framework")
	}
}
