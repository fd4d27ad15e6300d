package core

import (
	"fmt"

	"repro/internal/trainer"
	"repro/internal/workload"
)

// WorkflowOptions parameterize an end-to-end ML workflow (the paper's
// Fig. 1): hyperparameter tuning followed by full training with the winning
// configuration, under one overall budget or deadline.
type WorkflowOptions struct {
	// Exactly one of Budget or QoS must be positive; it covers BOTH phases.
	Budget float64
	QoS    float64

	// TuneShare is the fraction of the constraint reserved for the tuning
	// phase (default 0.6 — tuning runs thousands of partial trainings and
	// dominates spending in practice).
	TuneShare float64

	// Trials, Eta, EpochsPerStage configure the Successive-Halving phase.
	Trials         int
	Eta            int
	EpochsPerStage int

	Seed uint64
}

func (o WorkflowOptions) validate() error {
	if (o.Budget > 0) == (o.QoS > 0) {
		return fmt.Errorf("core: workflow needs exactly one of Budget or QoS")
	}
	if o.TuneShare < 0 || o.TuneShare >= 1 {
		return fmt.Errorf("core: TuneShare %g outside [0, 1)", o.TuneShare)
	}
	return nil
}

// WorkflowOutcome reports both phases of an executed workflow.
type WorkflowOutcome struct {
	Tune  *TuneOutcome
	Train *TrainOutcome

	// BestHyperparams is the tuning winner handed to the training phase.
	BestHyperparams workload.Hyperparams

	// Totals across both phases.
	TotalJCT  float64
	TotalCost float64
	// WithinConstraint reports whether the overall budget/deadline held.
	WithinConstraint bool
}

// RunWorkflow executes the full serverless ML workflow of Fig. 1 on one
// substrate: plan and run hyperparameter tuning under the tuning share of
// the constraint, then train to the target loss with the winning
// hyperparameters under whatever constraint remains.
func (f *Framework) RunWorkflow(opt WorkflowOptions, runner *trainer.Runner) (*WorkflowOutcome, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.TuneShare == 0 {
		opt.TuneShare = 0.6
	}
	if opt.Trials == 0 {
		opt.Trials = 256
	}
	if opt.Eta == 0 {
		opt.Eta = 2
	}
	if opt.EpochsPerStage == 0 {
		opt.EpochsPerStage = 2
	}

	tuneOpt := Options{Seed: opt.Seed}
	if opt.Budget > 0 {
		tuneOpt.Budget = opt.Budget * opt.TuneShare
	} else {
		tuneOpt.QoS = opt.QoS * opt.TuneShare
	}
	tune, err := f.RunHPT(opt.Trials, opt.Eta, opt.EpochsPerStage, tuneOpt, runner)
	if err != nil {
		return nil, fmt.Errorf("core: workflow tuning phase: %w", err)
	}

	out := &WorkflowOutcome{
		Tune:            tune,
		BestHyperparams: tune.Run.BestTrial.HP,
		TotalJCT:        tune.Run.JCT,
		TotalCost:       tune.Run.TotalCost,
	}

	// The training phase gets what remains of the constraint after the
	// measured tuning spend (not the planned one).
	trainOpt := Options{Seed: opt.Seed + 1}
	if opt.Budget > 0 {
		remaining := opt.Budget - tune.Run.TotalCost
		if remaining <= 0 {
			return out, fmt.Errorf("core: tuning consumed the whole budget ($%.2f of $%.2f)",
				tune.Run.TotalCost, opt.Budget)
		}
		trainOpt.Budget = remaining
	} else {
		remaining := opt.QoS - tune.Run.JCT
		if remaining <= 0 {
			return out, fmt.Errorf("core: tuning consumed the whole deadline (%.0fs of %.0fs)",
				tune.Run.JCT, opt.QoS)
		}
		trainOpt.QoS = remaining
	}

	train, err := f.TrainWithHyperparams(out.BestHyperparams, trainOpt, runner)
	if err != nil {
		return nil, fmt.Errorf("core: workflow training phase: %w", err)
	}
	out.Train = train
	out.TotalJCT += train.Result.JCT
	out.TotalCost += train.Result.TotalCost
	if opt.Budget > 0 {
		out.WithinConstraint = out.TotalCost <= opt.Budget*1.001
	} else {
		out.WithinConstraint = out.TotalJCT <= opt.QoS*1.001
	}
	return out, nil
}

// TrainWithHyperparams is Train with explicit trial hyperparameters instead
// of the workload defaults (used by the workflow's training phase, which
// trains the tuning winner).
func (f *Framework) TrainWithHyperparams(hp workload.Hyperparams, opt Options, runner *trainer.Runner) (*TrainOutcome, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	sched, alloc, est, err := f.newSchedulerSession(opt)
	if err != nil {
		return nil, err
	}
	engine := f.Workload.NewEngine(hp, opt.Seed)
	res, err := runner.Run(trainer.Config{
		Workload:   f.Workload,
		Engine:     engine,
		Alloc:      alloc,
		TargetLoss: f.Workload.TargetLoss,
		MaxEpochs:  2000,
		Controller: sched.Controller(),
	})
	if err != nil {
		return nil, err
	}
	return &TrainOutcome{Result: res, Scheduler: sched, OfflineEstimate: est}, nil
}
