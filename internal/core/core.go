// Package core wires the paper's components into the CE-scaling framework
// (Fig. 6): the Pareto profiler builds the per-epoch cost/JCT models and
// prunes the allocation space; the greedy heuristic planner partitions
// resources across hyperparameter-tuning stages before tuning starts; the
// adaptive scheduler adjusts training allocations at runtime from the loss
// curve fitter's online predictions.
//
// The comparison systems of §IV are no code of their own: each is an Options
// value, which picks its candidate set, plus a plan rule on the planner that
// Planner builds over that set. "Grid" is one service's unpruned grid,
// {PinStorage: &kind, DisablePareto: true}.
//
//   - CE-scaling, Options{}: tuning is PlanMinJCT/PlanMinCost (Algorithm 1,
//     PlanHPT), training Algorithm 2 (Session); WO-pa adds DisablePareto and
//     WO-dr DisableDelayedRestart.
//   - LambdaML [14]: tuning is OptimalStatic on the S3 grid. Its offline
//     prediction violates training constraints, so its training is not run.
//   - Siren [9]: tuning is SirenPlan on the S3 grid (any service's in Fig. 16),
//     training Algorithm 2 on that grid with DisableDelayedRestart and
//     Variant: scheduler.Siren.
//   - Cirrus [4]: tuning is OptimalStatic on the VM-PS grid. Modified Cirrus
//     (§IV-C) trains with CE-scaling's online prediction under
//     {PinStorage: &storage.VMPS, DisableDelayedRestart: true}.
//   - Fixed (§IV-B): tuning is FixedPlan on CE-scaling's planner.
//
// Every system reads the same cost.Model estimates and drives the same
// trainer, so differences in JCT and cost reflect policy, not substrate.
package core

import (
	"fmt"
	"slices"

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
	// Full is the feasible allocation enumeration.
	Full []cost.Point
	// Pareto is Full's boundary in ascending epoch time: the interned
	// frontier's points (cost.ParetoFrontier), shared by every framework
	// of the same workload and grid. It is read-only; never mutate it.
	Pareto []cost.Point

	// shared holds the online loss histories of every Session: the sessions
	// replay one loss sequence, so each history is fitted and predicted once.
	shared *predictor.Shared
}

// New profiles the workload over the default grid.
func New(w *workload.Model) *Framework {
	return profile(w, cost.DefaultGrid(), predictor.NewShared())
}

// WithGrid profiles f's workload over another grid. The two frameworks share
// one history tree: their sessions replay the same loss sequences whatever
// the allocation space, so each history is fitted and predicted once for
// both.
func (f *Framework) WithGrid(g cost.Grid) *Framework {
	return profile(f.Workload, g, f.shared)
}

func profile(w *workload.Model, g cost.Grid, shared *predictor.Shared) *Framework {
	m := cost.NewModel(w)
	return &Framework{
		Workload: w,
		Model:    m,
		Grid:     g,
		Full:     m.Enumerate(g),
		Pareto:   m.ParetoFrontier(g).Points(),
		shared:   shared,
	}
}

// Options tune a planning or training session.
type Options struct {
	// Exactly one of Budget (minimize JCT) or QoS (minimize cost, seconds)
	// must be positive.
	Budget float64
	QoS    float64

	// Delta is Algorithm 2's online-prediction drift threshold δ (default
	// 0.1), read by the training scheduler only; Algorithm 1's improvement
	// threshold is the planner's own.
	Delta float64
	// DisableDelayedRestart turns off the Fig. 8 overlap (WO-dr ablation;
	// modified Cirrus restarts immediately too).
	DisableDelayedRestart bool
	// DisablePareto searches the full enumeration (WO-pa ablation).
	DisablePareto bool
	// PinStorage, when non-nil, restricts allocations to one storage
	// service (the Fig. 16-18 experiments; modified Cirrus pins VM-PS).
	PinStorage *storage.Kind
	// Variant switches on a baseline's departures from Algorithm 2 in the
	// training scheduler (scheduler.Siren for Siren); zero is CE-scaling.
	Variant scheduler.Variant

	// Obs, when set, receives the planner's per-stage decisions and the
	// scheduler's per-epoch Algorithm 2 decision log. Train,
	// TrainWithHyperparams and RunHPT fall back to the runner's observer when
	// nil, so attaching a sink to the runner instruments the whole session.
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
		pinned := filterByStorage(f.Full, *opt.PinStorage)
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

// filterByStorage returns the points using the given service, in order.
func filterByStorage(points []cost.Point, kind storage.Kind) []cost.Point {
	return slices.DeleteFunc(slices.Clone(points), func(p cost.Point) bool { return p.Alloc.Storage != kind })
}

// --- Hyperparameter tuning ---

// TuneOutcome carries the plan and, when executed, the measured run.
type TuneOutcome struct {
	Plan planner.Result
	Run  *sha.Result
}

// Planner builds Algorithm 1's planner over the stage shape stages and the
// candidate set opt selects, recording into opt.Obs: the one way a system's
// tuning planner is built. It reads no constraint, so one planner serves
// every constraint of a comparison.
func (f *Framework) Planner(stages []planner.Stage, opt Options) (*planner.Planner, error) {
	pl, err := planner.New(f.Model, stages, f.candidates(opt))
	if err != nil {
		return nil, err
	}
	pl.Obs = opt.Obs
	return pl, nil
}

// PlanHPT runs the greedy heuristic planner (Algorithm 1) over the stage
// shape stages under opt's constraint.
func (f *Framework) PlanHPT(stages []planner.Stage, opt Options) (planner.Result, error) {
	if err := opt.validate(); err != nil {
		return planner.Result{}, err
	}
	pl, err := f.Planner(stages, opt)
	if err != nil {
		return planner.Result{}, err
	}
	if opt.Budget > 0 {
		return pl.PlanMinJCT(opt.Budget), nil
	}
	return pl.PlanMinCost(opt.QoS), nil
}

// RunHPT plans the stage shape stages and then executes the tuning workflow
// on the simulated substrate, returning both the plan and the measured run.
func (f *Framework) RunHPT(stages []planner.Stage, opt Options, runner *trainer.Runner) (*TuneOutcome, error) {
	if opt.Obs == nil {
		opt.Obs = runner.Observer()
	}
	plan, err := f.PlanHPT(stages, opt)
	if err != nil {
		return nil, err
	}
	run, err := sha.Run(sha.Config{
		Workload: f.Workload,
		Stages:   stages,
		Plan:     plan.Plan,
		Runner:   runner,
		Seed:     opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &TuneOutcome{Plan: plan, Run: run}, nil
}

// --- Model training ---

// TrainOutcome carries the measured run.
type TrainOutcome struct {
	Result *trainer.Result
	// OfflineEstimate is the warm-start epoch prediction.
	OfflineEstimate int
}

// Session builds an adaptive scheduling session (Algorithm 2) for opt and
// returns the scheduler, its initial allocation and the offline estimate.
// Every adaptive training run starts from one: each system's through Train
// (the package doc gives their options), and callers that drive the trainer
// themselves (fault injection).
func (f *Framework) Session(opt Options) (*scheduler.Scheduler, cost.Allocation, int, error) {
	if err := opt.validate(); err != nil {
		return nil, cost.Allocation{}, 0, err
	}
	sched := scheduler.New(scheduler.Config{
		Candidates:     f.candidates(opt),
		Budget:         opt.Budget,
		QoS:            opt.QoS,
		TargetLoss:     f.Workload.TargetLoss,
		Delta:          opt.Delta,
		DelayedRestart: !opt.DisableDelayedRestart,
		Shared:         f.shared,
		Offline:        predictor.NewOffline(f.Workload),
		OfflineSeed:    opt.Seed,
		Variant:        opt.Variant,
		Obs:            opt.Obs,
	})
	alloc, est := sched.Initial()
	if alloc.N == 0 {
		return nil, cost.Allocation{}, 0, fmt.Errorf("core: no feasible initial allocation for %s", f.Workload.Name)
	}
	return &sched, alloc, est, nil
}

// Train runs a training job to the workload's target loss under the
// adaptive scheduler (Algorithm 2), with the workload's default learning
// rate.
func (f *Framework) Train(opt Options, runner *trainer.Runner) (*TrainOutcome, error) {
	return f.TrainWithHyperparams(workload.Hyperparams{LR: f.Workload.DefaultLR}, opt, runner)
}

// TrainWithHyperparams is Train with explicit trial hyperparameters (the
// workflow's training phase trains the tuning winner).
func (f *Framework) TrainWithHyperparams(hp workload.Hyperparams, opt Options, runner *trainer.Runner) (*TrainOutcome, error) {
	if opt.Obs == nil {
		opt.Obs = runner.Observer()
	}
	sched, alloc, est, err := f.Session(opt)
	if err != nil {
		return nil, err
	}
	res := new(trainer.Result)
	if err := runner.Run(trainer.Config{
		Workload:   f.Workload,
		Engine:     f.Workload.NewEngine(hp, opt.Seed),
		Alloc:      alloc,
		TargetLoss: f.Workload.TargetLoss,
		MaxEpochs:  2000,
		Controller: sched.Controller(),
	}, res); err != nil {
		return nil, err
	}
	return &TrainOutcome{Result: res, OfflineEstimate: est}, nil
}
