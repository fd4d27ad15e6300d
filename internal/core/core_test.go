package core

import (
	"testing"

	"repro/internal/cost"
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
	if _, _, err := f.PlanHPT(16, 2, 2, Options{}); err == nil {
		t.Error("no constraint should be rejected")
	}
	if _, _, err := f.PlanHPT(16, 2, 2, Options{Budget: 1, QoS: 1}); err == nil {
		t.Error("two constraints should be rejected")
	}
	if _, err := f.Train(Options{}, trainer.NewRunner(1)); err == nil {
		t.Error("Train without constraint should be rejected")
	}
}

func TestPlanHPTGivenBudget(t *testing.T) {
	f := New(workload.MobileNet())
	res, pl, err := f.PlanHPT(256, 2, 2, Options{Budget: 1e9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pl == nil || len(res.Plan.Stages) == 0 {
		t.Fatal("no plan produced")
	}
	if !res.Feasible {
		t.Error("huge budget must be feasible")
	}
}

func TestRunHPTExecutesPlan(t *testing.T) {
	f := New(workload.MobileNet())
	out, err := f.RunHPT(16, 2, 2, Options{Budget: 1e9, Seed: 3}, trainer.NewRunner(3))
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
