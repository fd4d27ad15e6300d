package baselines

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/planner"
	"repro/internal/storage"
	"repro/internal/workload"
)

func setup(t *testing.T, w *workload.Model) (*cost.Model, []cost.Point, []planner.Stage) {
	t.Helper()
	m := cost.NewModel(w)
	points := m.Enumerate(cost.DefaultGrid())
	pareto := cost.Pareto(points)
	return m, pareto, planner.SHAStages(512, 2, 2)
}

func TestFilterByStorage(t *testing.T) {
	w := workload.LRHiggs()
	m := cost.NewModel(w)
	points := m.Enumerate(cost.DefaultGrid())
	for _, kind := range storage.Kinds() {
		sub := FilterByStorage(points, kind)
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
	w := workload.MobileNet()
	m, pareto, stages := setup(t, w)
	res, err := StaticPlan(m, stages, pareto, storage.S3, 1e9, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range res.Plan.Stages {
		if a.Storage != storage.S3 {
			t.Errorf("stage %d uses %v, want S3", i, a.Storage)
		}
	}
	// Static: all stages identical.
	for _, a := range res.Plan.Stages[1:] {
		if a != res.Plan.Stages[0] {
			t.Error("LambdaML plan is not static")
		}
	}
}

func TestSirenPlanBiasesEarlyStages(t *testing.T) {
	w := workload.MobileNet()
	m, pareto, stages := setup(t, w)
	static, err := StaticPlan(m, stages, pareto, storage.S3, 1e9, 0)
	if err != nil {
		t.Fatal(err)
	}
	budget := static.Cost * 1.4
	siren, err := SirenPlan(m, stages, pareto, storage.S3, budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	if siren.Cost > budget*(1+1e-9) {
		t.Errorf("Siren plan cost %g violates budget %g", siren.Cost, budget)
	}
	// Early stages should be at least as expensive per epoch as late ones.
	first := m.EpochCost(siren.Plan.Stages[0])
	last := m.EpochCost(siren.Plan.Stages[len(stages)-1])
	if first < last {
		t.Errorf("Siren early-stage epoch cost %g below late %g; bias missing", first, last)
	}
}

func TestPlansErrorWithoutCandidates(t *testing.T) {
	w := workload.MobileNet()
	m, _, stages := setup(t, w)
	if _, err := StaticPlan(m, stages, nil, storage.S3, 1, 0); err == nil {
		t.Error("empty candidate set should error")
	}
}

func TestStaticPlanPinnedEachService(t *testing.T) {
	w := workload.LRHiggs() // small model: every service is feasible
	m := cost.NewModel(w)
	points := m.Enumerate(cost.DefaultGrid())
	stages := planner.SHAStages(64, 2, 2)
	// Every service, VM-PS (the Cirrus plan) included.
	for _, kind := range storage.Kinds() {
		res, err := StaticPlan(m, stages, points, kind, 1e9, 0)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for _, a := range res.Plan.Stages {
			if a.Storage != kind {
				t.Fatalf("pinned %v plan used %v", kind, a.Storage)
			}
		}
	}
}

func TestSirenPlanPinnedVMPS(t *testing.T) {
	w := workload.MobileNet()
	m := cost.NewModel(w)
	points := m.Enumerate(cost.DefaultGrid())
	stages := planner.SHAStages(128, 2, 2)
	static, err := StaticPlan(m, stages, points, storage.VMPS, 1e9, 0)
	if err != nil {
		t.Fatal(err)
	}
	budget := static.Cost * 1.4
	res, err := SirenPlan(m, stages, points, storage.VMPS, budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > budget*(1+1e-9) {
		t.Errorf("pinned Siren cost %g violates budget %g", res.Cost, budget)
	}
	for _, a := range res.Plan.Stages {
		if a.Storage != storage.VMPS {
			t.Fatal("pinned Siren left VM-PS")
		}
	}
}
