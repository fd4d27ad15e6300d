// Package core wires the paper's components into the CE-scaling framework
// (Fig. 6): the Pareto profiler builds the per-epoch cost/JCT models and
// prunes the allocation space; the greedy heuristic planner partitions
// resources across hyperparameter-tuning stages before tuning starts; the
// adaptive scheduler adjusts training allocations at runtime from the loss
// curve fitter's online predictions.
package core

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/predictor"
	"repro/internal/scheduler"
	"repro/internal/sha"
	"repro/internal/storage"
	"repro/internal/trainer"
	"repro/internal/workload"
)

// Framework is one CE-scaling instance bound to a workload.
type Framework struct {
	Workload *workload.Model
	Model    *cost.Model
	Grid     cost.Grid
	// Full is the feasible allocation enumeration; Pareto its boundary.
	Full   []cost.Point
	Pareto []cost.Point
	// Frontier is the boundary as an immutable shared view, interned per
	// model configuration: every scheduler session of every framework with
	// the same workload/pricing/grid shares this one instance.
	Frontier *cost.Frontier
}

// New profiles the workload over the default grid.
func New(w *workload.Model) *Framework {
	return NewWithGrid(w, cost.DefaultGrid())
}

// NewWithGrid profiles the workload over an explicit grid.
func NewWithGrid(w *workload.Model, g cost.Grid) *Framework {
	m := cost.NewModel(w)
	return &Framework{
		Workload: w,
		Model:    m,
		Grid:     g,
		Full:     m.Enumerate(g),
		Pareto:   m.ParetoSet(g),
		Frontier: m.ParetoFrontier(g),
	}
}

// Options tune a planning or training session.
type Options struct {
	// Exactly one of Budget (minimize JCT) or QoS (minimize cost, seconds)
	// must be positive.
	Budget float64
	QoS    float64

	// Delta is the online-prediction drift threshold (default 0.1).
	Delta float64
	// DisableDelayedRestart turns off the Fig. 8 overlap (WO-dr ablation).
	DisableDelayedRestart bool
	// DisablePareto searches the full enumeration (WO-pa ablation).
	DisablePareto bool
	// PinStorage, when non-nil, restricts allocations to one storage
	// service (the Fig. 16-18 experiments).
	PinStorage *storage.Kind

	// Obs, when set, receives the planner's per-stage decisions and the
	// scheduler's per-epoch Algorithm 2 decision log. Train and RunHPT fall
	// back to the runner's observer when nil, so attaching a sink to the
	// runner instruments the whole session.
	Obs *obs.Observer

	Seed uint64
}

func (o Options) validate() error {
	if (o.Budget > 0) == (o.QoS > 0) {
		return fmt.Errorf("core: exactly one of Budget or QoS must be positive (budget=%g qos=%g)", o.Budget, o.QoS)
	}
	return nil
}

// candidates returns the allocation set a session searches under opt.
// Pinning restricts the space *before* Pareto pruning: CE-scaling limited
// to one storage service computes the frontier of that service's
// allocations, which can differ entirely from the all-service frontier.
func (f *Framework) candidates(opt Options) []cost.Point {
	if opt.PinStorage != nil {
		pinned := baselines.FilterByStorage(f.Full, *opt.PinStorage)
		if opt.DisablePareto {
			return pinned
		}
		return cost.Pareto(pinned)
	}
	if opt.DisablePareto {
		return f.Full
	}
	return f.Pareto
}

// --- Hyperparameter tuning ---

// TuneOutcome carries the plan and, when executed, the measured run.
type TuneOutcome struct {
	Plan    planner.Result
	Planner *planner.Planner
	Run     *sha.Result
}

// PlanHPT builds the stage structure and runs the greedy heuristic planner
// (Algorithm 1) under opt's constraint.
func (f *Framework) PlanHPT(trials, eta, epochsPerStage int, opt Options) (planner.Result, *planner.Planner, error) {
	if err := opt.validate(); err != nil {
		return planner.Result{}, nil, err
	}
	stages := planner.SHAStages(trials, eta, epochsPerStage)
	pts := f.candidates(opt)
	pl, err := planner.New(f.Model, stages, pts)
	if err != nil {
		return planner.Result{}, nil, err
	}
	if opt.Delta > 0 {
		pl.Delta = opt.Delta
	}
	pl.Obs = opt.Obs
	var res planner.Result
	if opt.Budget > 0 {
		res = pl.PlanMinJCT(opt.Budget)
	} else {
		res = pl.PlanMinCost(opt.QoS)
	}
	return res, pl, nil
}

// RunHPT plans and then executes the tuning workflow on the simulated
// substrate, returning both the plan and the measured run.
func (f *Framework) RunHPT(trials, eta, epochsPerStage int, opt Options, runner *trainer.Runner) (*TuneOutcome, error) {
	if opt.Obs == nil {
		opt.Obs = runner.Observer()
	}
	plan, pl, err := f.PlanHPT(trials, eta, epochsPerStage, opt)
	if err != nil {
		return nil, err
	}
	run, err := sha.Run(sha.Config{
		Workload: f.Workload,
		Trials:   trials,
		Eta:      eta, EpochsPerStage: epochsPerStage,
		Plan:   plan.Plan,
		Runner: runner,
		Seed:   opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &TuneOutcome{Plan: plan, Planner: pl, Run: run}, nil
}

// --- Model training ---

// TrainOutcome carries the measured run and the scheduler that drove it.
type TrainOutcome struct {
	Result    *trainer.Result
	Scheduler *scheduler.Scheduler
	// OfflineEstimate is the warm-start epoch prediction.
	OfflineEstimate int
}

// newSchedulerSession builds an adaptive scheduling session for opt and
// returns the scheduler, its initial allocation and the offline estimate.
func (f *Framework) newSchedulerSession(opt Options) (*scheduler.Scheduler, cost.Allocation, int, error) {
	// The plain Pareto case hands the session the shared immutable frontier
	// — no per-session copy; pinned or full-enumeration sessions get their
	// private candidate slice as before.
	var frontier *cost.Frontier
	var candidates []cost.Point
	if opt.PinStorage == nil && !opt.DisablePareto {
		frontier = f.Frontier
	} else {
		candidates = f.candidates(opt)
	}
	sched := scheduler.New(scheduler.Config{
		Model:          f.Model,
		Candidates:     candidates,
		Frontier:       frontier,
		Budget:         opt.Budget,
		QoS:            opt.QoS,
		TargetLoss:     f.Workload.TargetLoss,
		Delta:          opt.Delta,
		DelayedRestart: !opt.DisableDelayedRestart,
		Offline:        predictor.NewOffline(f.Workload),
		OfflineSeed:    opt.Seed,
		Obs:            opt.Obs,
	})
	alloc, est := sched.Initial()
	if alloc.N == 0 {
		return nil, cost.Allocation{}, 0, fmt.Errorf("core: no feasible initial allocation for %s", f.Workload.Name)
	}
	return sched, alloc, est, nil
}

// Train runs a training job to the workload's target loss under the
// adaptive scheduler (Algorithm 2).
func (f *Framework) Train(opt Options, runner *trainer.Runner) (*TrainOutcome, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.Obs == nil {
		opt.Obs = runner.Observer()
	}
	sched, alloc, est, err := f.newSchedulerSession(opt)
	if err != nil {
		return nil, err
	}
	engine := f.Workload.NewEngine(workload.Hyperparams{LR: f.Workload.DefaultLR}, opt.Seed)
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
