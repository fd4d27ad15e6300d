package core

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/trainer"
	"repro/internal/workload"
)

func TestWorkflowValidation(t *testing.T) {
	f := New(workload.MobileNet())
	r := trainer.NewRunner(1)
	if _, err := f.RunWorkflow(WorkflowOptions{}, r); err == nil {
		t.Error("no constraint should be rejected")
	}
	if _, err := f.RunWorkflow(WorkflowOptions{Budget: 1, QoS: 1}, r); err == nil {
		t.Error("two constraints should be rejected")
	}
}

func TestWorkflowEndToEndUnderBudget(t *testing.T) {
	f := New(workload.MobileNet())
	// A budget comfortably covering a 32-trial tuning pass plus training.
	out, err := f.RunWorkflow(WorkflowOptions{
		Budget: 500, Stages: planner.SHAStages(32, 2, 2), Seed: 5,
	}, trainer.NewRunner(5))
	if err != nil {
		t.Fatal(err)
	}
	if out.Tune == nil || out.Train == nil {
		t.Fatal("workflow missing a phase")
	}
	if out.Tune.Run.BestTrial == nil {
		t.Fatal("no tuning winner")
	}
	if out.BestHyperparams != out.Tune.Run.BestTrial.HP {
		t.Error("training phase did not receive the tuning winner's hyperparameters")
	}
	if !out.Train.Result.Converged {
		t.Errorf("training phase did not converge (loss %g)", out.Train.Result.FinalLoss)
	}
	if out.TotalCost > 500 {
		t.Errorf("workflow cost %g blew the overall budget", out.TotalCost)
	}
	if !out.WithinConstraint {
		t.Error("workflow should report the constraint held")
	}
	wantTotal := out.Tune.Run.TotalCost + out.Train.Result.TotalCost
	if out.TotalCost != wantTotal {
		t.Errorf("TotalCost %g != phases sum %g", out.TotalCost, wantTotal)
	}
}

func TestWorkflowUnderDeadline(t *testing.T) {
	f := New(workload.MobileNet())
	// Probe a generous budgeted workflow first to size a realistic deadline.
	probe, err := f.RunWorkflow(WorkflowOptions{Budget: 2000, Stages: planner.SHAStages(16, 2, 2), Seed: 7}, trainer.NewRunner(7))
	if err != nil {
		t.Fatal(err)
	}
	qos := probe.TotalJCT * 2
	out, err := f.RunWorkflow(WorkflowOptions{QoS: qos, Stages: planner.SHAStages(16, 2, 2), Seed: 7}, trainer.NewRunner(8))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Train.Result.Converged {
		t.Fatal("deadline workflow did not converge")
	}
	if out.TotalJCT > qos*1.2 {
		t.Errorf("workflow JCT %g blew deadline %g beyond tolerance", out.TotalJCT, qos)
	}
}

func TestWorkflowExhaustedBudgetFails(t *testing.T) {
	f := New(workload.MobileNet())
	// A budget so small the tuning phase alone overruns it.
	if _, err := f.RunWorkflow(WorkflowOptions{Budget: 0.01, Stages: planner.SHAStages(16, 2, 2), Seed: 9}, trainer.NewRunner(9)); err == nil {
		t.Error("expected an error when tuning consumes the whole budget")
	}
}

func TestTrainWithHyperparamsUsesThem(t *testing.T) {
	f := New(workload.ResNet50())
	good, err := f.TrainWithHyperparams(workload.Hyperparams{LR: f.Workload.LROpt}, Options{Budget: 1e6, Seed: 3}, trainer.NewRunner(3))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := f.TrainWithHyperparams(workload.Hyperparams{LR: f.Workload.LROpt * 500}, Options{Budget: 1e6, Seed: 3}, trainer.NewRunner(4))
	if err != nil {
		t.Fatal(err)
	}
	// A wildly wrong learning rate must need more epochs (or fail).
	if bad.Result.Converged && bad.Result.Epochs <= good.Result.Epochs {
		t.Errorf("bad lr converged in %d epochs <= good lr's %d", bad.Result.Epochs, good.Result.Epochs)
	}
}

// TestWorkflowTrainingRecordsDecisions: on an observed runner the workflow's
// training phase logs its Algorithm 2 decisions like Train does (tuning
// alone records none: it has no scheduler).
func TestWorkflowTrainingRecordsDecisions(t *testing.T) {
	f := New(workload.MobileNet())
	r := trainer.NewRunner(9)
	o := obs.New()
	r.SetObserver(o)
	out, err := f.RunWorkflow(WorkflowOptions{Budget: 600, Stages: planner.SHAStages(64, 2, 2), Seed: 9}, r)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Stats().Counter("scheduler.decisions"); got == 0 {
		t.Errorf("training phase ran %d epochs and recorded %g scheduler decisions", out.Train.Result.Epochs, got)
	}
}
