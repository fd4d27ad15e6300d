// Integration tests exercising the framework end to end: the full Fig. 6
// pipeline (profile -> plan -> execute) and its invariants.
package repro_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/planner"
	"repro/internal/storage"
	"repro/internal/trainer"
	"repro/internal/workload"
)

func TestIntegrationProfilePlanExecute(t *testing.T) {
	w, err := workload.ByName("MobileNet-Cifar10")
	if err != nil {
		t.Fatal(err)
	}
	fw := core.New(w)

	// Profile: a nonempty frontier, strictly ordered.
	if len(fw.Pareto) < 5 {
		t.Fatalf("frontier too small: %d", len(fw.Pareto))
	}
	for i := 1; i < len(fw.Pareto); i++ {
		if fw.Pareto[i].Time <= fw.Pareto[i-1].Time || fw.Pareto[i].Cost >= fw.Pareto[i-1].Cost {
			t.Fatal("frontier ordering violated")
		}
	}

	// Plan tuning under a budget derived from the frontier itself.
	budget := fw.Pareto[len(fw.Pareto)-1].Cost * 64 * 2 * 4 // rough but generous
	tune, err := fw.RunHPT(planner.SHAStages(64, 2, 2), core.Options{Budget: budget, Seed: 11}, trainer.NewRunner(11))
	if err != nil {
		t.Fatal(err)
	}
	// The plan's predicted JCT should be in the ballpark of the measured
	// one (the validation experiments quantify this precisely; here we
	// guard against order-of-magnitude drift).
	ratio := tune.Run.JCT / tune.Plan.JCT
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("measured tuning JCT %g vs planned %g (ratio %.2f)", tune.Run.JCT, tune.Plan.JCT, ratio)
	}

	// Train the tuning winner under a deadline.
	probe, err := fw.Train(core.Options{Budget: 1e12, Seed: 12}, trainer.NewRunner(12))
	if err != nil {
		t.Fatal(err)
	}
	train, err := fw.Train(core.Options{QoS: probe.Result.JCT * 2, Seed: 12}, trainer.NewRunner(13))
	if err != nil {
		t.Fatal(err)
	}
	if !train.Result.Converged {
		t.Fatal("training did not converge")
	}
	if train.Result.TotalCost > probe.Result.TotalCost {
		t.Errorf("deadline run ($%.2f) should be cheaper than the fastest run ($%.2f)",
			train.Result.TotalCost, probe.Result.TotalCost)
	}
}

func TestIntegrationWorkflow(t *testing.T) {
	w, _ := workload.ByName("MobileNet-Cifar10")
	fw := core.New(w)
	out, err := fw.RunWorkflow(core.WorkflowOptions{
		Budget: 600, Stages: planner.SHAStages(32, 2, 2), Seed: 21,
	}, trainer.NewRunner(21))
	if err != nil {
		t.Fatal(err)
	}
	if !out.WithinConstraint || !out.Train.Result.Converged {
		t.Errorf("workflow: within=%v converged=%v", out.WithinConstraint, out.Train.Result.Converged)
	}
	if math.Abs(out.TotalCost-(out.Tune.Run.TotalCost+out.Train.Result.TotalCost)) > 1e-9 {
		t.Error("workflow totals do not add up")
	}
}

func TestIntegrationDeterminismAcrossRuns(t *testing.T) {
	run := func() (float64, float64) {
		w, _ := workload.ByName("ResNet50-Cifar10")
		fw := core.New(w)
		out, err := fw.Train(core.Options{Budget: 1e6, Seed: 31}, trainer.NewRunner(31))
		if err != nil {
			t.Fatal(err)
		}
		return out.Result.JCT, out.Result.TotalCost
	}
	j1, c1 := run()
	j2, c2 := run()
	if j1 != j2 || c1 != c2 {
		t.Errorf("framework runs are not deterministic: (%g, %g) vs (%g, %g)", j1, c1, j2, c2)
	}
}

func TestIntegrationBaselinesComparable(t *testing.T) {
	// The baselines plan over the same substrate, so CE's plan should never
	// be slower than the static S3 plan it generalizes, at equal budget.
	w, _ := workload.ByName("BERT-IMDb")
	fw := core.New(w)
	stages := planner.SHAStages(64, 2, 2)
	s3 := storage.S3
	lambdaML, err := fw.Planner(stages, core.Options{PinStorage: &s3, DisablePareto: true})
	if err != nil {
		t.Fatal(err)
	}
	budget := lambdaML.OptimalStatic(1e9, 0).Cost * 1.3
	ce, err := fw.PlanHPT(stages, core.Options{Budget: budget, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	staticB := lambdaML.OptimalStatic(budget, 0)
	if ce.JCT > staticB.JCT*(1+1e-9) {
		t.Errorf("CE plan JCT %g worse than static S3 %g at equal budget", ce.JCT, staticB.JCT)
	}
}
