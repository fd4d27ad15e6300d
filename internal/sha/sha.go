// Package sha drives early-stopping hyperparameter tuning with Successive
// Halving (§II-A, Fig. 2): a population of trials with sampled
// hyperparameters trains for a few epochs per stage; after each stage the
// bottom-performing half is terminated, until the best configuration
// remains. Each stage runs all surviving trials concurrently under the
// stage's allocation from a partitioning plan, in admission waves when the
// platform concurrency cap binds; the simulated trainer supplies per-trial
// wall time and cost.
package sha

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/planner"
	"repro/internal/sim"
	"repro/internal/trainer"
	"repro/internal/workload"
)

// Trial is one hyperparameter configuration under evaluation.
type Trial struct {
	ID     int
	HP     workload.Hyperparams
	Engine workload.Engine
	Loss   float64
	Alive  bool
	Epochs int
}

// Config describes one tuning run.
type Config struct {
	Workload *workload.Model
	// Stages is the stage shape (planner.SHAStages, or a Hyperband
	// bracket's); Stages[0].Trials is the initial population.
	Stages []planner.Stage
	// Plan assigns an allocation to every stage and the concurrency cap the
	// stages run under; its length must match Stages.
	Plan planner.Plan
	// Runner supplies the simulated substrate.
	Runner *trainer.Runner
	// Seed controls hyperparameter sampling and trial stochasticity.
	Seed uint64
	// Sample, when non-nil, replaces the uniform hyperparameter draw
	// (model-based tuners like BOHB plug in here).
	Sample func(rng *sim.Rand) workload.Hyperparams
	// OnResult, when non-nil, observes every trial after each stage it ran
	// (the feedback channel a model-based sampler learns from).
	OnResult func(*Trial)
}

// StageReport summarizes one executed stage.
type StageReport struct {
	Stage    int
	Trials   int
	Waves    int
	WallTime float64
	Cost     float64
	BestLoss float64
}

// Result summarizes a tuning run.
type Result struct {
	BestTrial *Trial
	JCT       float64
	TotalCost float64
	CommTime  float64 // summed synchronization wall time (per stage maxima)
	Stages    []StageReport
}

// SampleHyperparams draws trial hyperparameters: a log-uniform learning
// rate two decades around the workload's optimum and a uniform momentum.
func SampleHyperparams(w *workload.Model, rng *sim.Rand) workload.Hyperparams {
	exp := (rng.Float64()*2 - 1) * 2 // +/- 2 decades
	return workload.Hyperparams{
		LR:       w.LROpt * math.Pow(10, exp),
		Momentum: rng.Float64() * 0.99,
	}
}

// Run executes the tuning workflow of cfg.Stages under cfg.Plan: each
// stage in the admission waves planner.Waves gives at the plan's cap.
func Run(cfg Config) (*Result, error) {
	if cfg.Workload == nil || cfg.Runner == nil {
		return nil, fmt.Errorf("sha: nil workload or runner")
	}
	stages := cfg.Stages
	if len(stages) == 0 || stages[0].Trials < 1 {
		return nil, fmt.Errorf("sha: a run needs stages and a trial population")
	}
	if len(cfg.Plan.Stages) != len(stages) {
		return nil, fmt.Errorf("sha: plan has %d stages, structure needs %d", len(cfg.Plan.Stages), len(stages))
	}

	rng := sim.NewRand(cfg.Seed)
	sample := cfg.Sample
	if sample == nil {
		sample = func(rng *sim.Rand) workload.Hyperparams { return SampleHyperparams(cfg.Workload, rng) }
	}
	slab := make([]Trial, stages[0].Trials)
	trials := make([]*Trial, len(slab))
	for i := range trials {
		hp := sample(rng)
		slab[i] = Trial{ID: i, HP: hp, Alive: true, Loss: math.Inf(1),
			Engine: cfg.Workload.NewCurveEngine(hp, cfg.Seed+uint64(i)*7919)}
		trials[i] = &slab[i]
	}

	res := &Result{}
	alive := trials
	cap := cfg.Plan.Cap(cfg.Runner.Compute().Cap())

	var run trainer.Result // every trial's result, in turn
	for si, stage := range stages {
		alloc := cfg.Plan.Stages[si]
		waves, perWave := planner.Waves(len(alive), alloc.N, cap)
		report := StageReport{Stage: si, Trials: len(alive), Waves: waves, BestLoss: math.Inf(1)}
		for wStart := 0; wStart < len(alive); wStart += perWave {
			wEnd := min(wStart+perWave, len(alive))
			waveMax := 0.0
			waveComm := 0.0
			for _, tr := range alive[wStart:wEnd] {
				if err := cfg.Runner.Run(trainer.Config{Workload: cfg.Workload, Engine: tr.Engine, Alloc: alloc, MaxEpochs: stage.Epochs}, &run); err != nil {
					return nil, fmt.Errorf("sha: stage %d trial %d: %w", si, tr.ID, err)
				}
				tr.Loss = run.FinalLoss
				tr.Epochs += run.Epochs
				report.Cost += run.TotalCost
				if run.JCT > waveMax {
					waveMax = run.JCT
				}
				if run.SyncTime > waveComm {
					waveComm = run.SyncTime
				}
				if run.FinalLoss < report.BestLoss {
					report.BestLoss = run.FinalLoss
				}
				if cfg.OnResult != nil {
					cfg.OnResult(tr)
				}
			}
			report.WallTime += waveMax
			res.CommTime += waveComm
		}
		res.JCT += report.WallTime
		res.TotalCost += report.Cost
		res.Stages = append(res.Stages, report)

		// Terminate the bottom performers (Fig. 2): the survivors are the
		// next stage's population.
		sort.Slice(alive, func(i, j int) bool { return alive[i].Loss < alive[j].Loss })
		keep := 1
		if si+1 < len(stages) {
			keep = stages[si+1].Trials
			if keep > len(alive) {
				keep = len(alive)
			}
			if keep < 1 {
				keep = 1
			}
		}
		for _, tr := range alive[keep:] {
			tr.Alive = false
		}
		alive = alive[:keep]
	}
	res.BestTrial = alive[0]
	return res, nil
}
