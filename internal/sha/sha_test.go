package sha

import (
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/faas"
	"repro/internal/planner"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trainer"
	"repro/internal/workload"
)

func tuningConfig(t testing.TB, w *workload.Model, trials int, seed uint64) Config {
	t.Helper()
	m := cost.NewModel(w)
	pareto := m.ParetoSet(cost.DefaultGrid())
	stages := planner.SHAStages(trials, 2, 2)
	pl, err := planner.New(m, stages, pareto)
	if err != nil {
		t.Fatal(err)
	}
	static := pl.OptimalStatic(0, 1e15)
	return Config{
		Workload: w,
		Stages:   stages,
		Plan:     static.Plan,
		Runner:   trainer.NewRunner(seed),
		Seed:     seed,
	}
}

func TestRunProducesBestTrial(t *testing.T) {
	cfg := tuningConfig(t, workload.MobileNet(), 32, 1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestTrial == nil || !res.BestTrial.Alive {
		t.Fatal("no surviving best trial")
	}
	if res.JCT <= 0 || res.TotalCost <= 0 {
		t.Errorf("JCT %g / cost %g must be positive", res.JCT, res.TotalCost)
	}
	// 32 -> 16 -> 8 -> 4 -> 2 survivors: 5 stages.
	if len(res.Stages) != 5 {
		t.Fatalf("stage count = %d, want 5", len(res.Stages))
	}
	for i, st := range res.Stages {
		want := 32 >> uint(i)
		if st.Trials != want {
			t.Errorf("stage %d trials = %d, want %d", i, st.Trials, want)
		}
	}
}

func TestHalvingTerminatesWorstTrials(t *testing.T) {
	cfg := tuningConfig(t, workload.ResNet50(), 16, 3)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The winner's loss should be no worse than any stage's best loss was
	// at the moment of selection (it kept training afterwards).
	final := res.BestTrial.Loss
	if final > res.Stages[0].BestLoss {
		t.Errorf("winner loss %g worse than stage-0 best %g", final, res.Stages[0].BestLoss)
	}
}

func TestBestTrialNearOptimalLR(t *testing.T) {
	// With enough trials, the surviving configuration's learning rate
	// should be within about a decade of the workload optimum.
	cfg := tuningConfig(t, workload.MobileNet(), 64, 5)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := math.Abs(math.Log10(res.BestTrial.HP.LR / cfg.Workload.LROpt))
	if ratio > 1.2 {
		t.Errorf("winner lr %g is %.1f decades from optimum %g", res.BestTrial.HP.LR, ratio, cfg.Workload.LROpt)
	}
}

func TestStageCostsShrinkWithTrials(t *testing.T) {
	cfg := tuningConfig(t, workload.LRHiggs(), 32, 7)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Under a static plan, stage cost is roughly proportional to the trial
	// count, so stage 0 must dominate (the motivation for Finding 1).
	if res.Stages[0].Cost <= res.Stages[len(res.Stages)-1].Cost {
		t.Errorf("stage 0 cost %g should exceed final stage %g under a static plan",
			res.Stages[0].Cost, res.Stages[len(res.Stages)-1].Cost)
	}
	firstTwo := res.Stages[0].Cost + res.Stages[1].Cost
	if firstTwo < res.TotalCost/2 {
		t.Errorf("first two stages cost %g of %g; expected the majority", firstTwo, res.TotalCost)
	}
}

func TestWavesAppearWhenConcurrencyBinds(t *testing.T) {
	w := workload.MobileNet()
	cfg := tuningConfig(t, w, 512, 9)
	// Force a large function count so 512 trials cannot fit one wave.
	for i := range cfg.Plan.Stages {
		cfg.Plan.Stages[i] = cost.Allocation{N: 50, MemMB: cfg.Plan.Stages[i].MemMB, Storage: cfg.Plan.Stages[i].Storage}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages[0].Waves < 2 {
		t.Errorf("stage 0 waves = %d; 512 trials x 50 fns must exceed the 3000 cap", res.Stages[0].Waves)
	}
	if res.Stages[len(res.Stages)-1].Waves != 1 {
		t.Error("final stage should fit one wave")
	}
}

func TestRunValidation(t *testing.T) {
	w := workload.MobileNet()
	if _, err := Run(Config{Workload: w}); err == nil {
		t.Error("missing runner should error")
	}
	cfg := tuningConfig(t, w, 8, 1)
	cfg.Stages = nil
	if _, err := Run(cfg); err == nil {
		t.Error("a run without stages should error")
	}
	cfg = tuningConfig(t, w, 8, 1)
	cfg.Plan.Stages = cfg.Plan.Stages[:1]
	if _, err := Run(cfg); err == nil {
		t.Error("plan/stage mismatch should error")
	}
}

func TestSampleHyperparamsRange(t *testing.T) {
	w := workload.BERT()
	rng := sim.NewRand(1)
	for i := 0; i < 200; i++ {
		hp := SampleHyperparams(w, rng)
		ratio := hp.LR / w.LROpt
		if ratio < 0.009 || ratio > 101 {
			t.Fatalf("lr %g outside two decades of %g", hp.LR, w.LROpt)
		}
		if hp.Momentum < 0 || hp.Momentum >= 1 {
			t.Fatalf("momentum %g out of range", hp.Momentum)
		}
	}
}

func TestDeterministicTuning(t *testing.T) {
	run := func() (float64, float64, int) {
		res, err := Run(tuningConfig(t, workload.MobileNet(), 16, 42))
		if err != nil {
			t.Fatal(err)
		}
		return res.JCT, res.TotalCost, res.BestTrial.ID
	}
	j1, c1, b1 := run()
	j2, c2, b2 := run()
	if j1 != j2 || c1 != c2 || b1 != b2 {
		t.Error("tuning run is not deterministic")
	}
}

// TestPlannedWavesMatchExecuted: the admission waves the planner prices for
// each stage are the waves Run executes, at the platform cap and under the
// Fixed baseline's per-stage share, on an allocation whose n (7) does not
// divide the 3000-function cap. A stage's planned waves are its planned
// time over the time of the same stage with one trial.
func TestPlannedWavesMatchExecuted(t *testing.T) {
	w := workload.MobileNet()
	m := cost.NewModel(w)
	pts := m.Enumerate(cost.Grid{Ns: []int{7}, MemsMB: []int{1769}, Storages: []storage.Kind{storage.S3}})
	if len(pts) != 1 {
		t.Fatalf("one-point grid enumerates %d feasible points", len(pts))
	}
	a := pts[0].Alloc
	stages := []planner.Stage{{Trials: 857, Epochs: 1}, {Trials: 428, Epochs: 1}, {Trials: 2, Epochs: 1}}
	pl, err := planner.New(m, stages, pts)
	if err != nil {
		t.Fatal(err)
	}
	plannedWaves := func(i, cap int) int {
		single, err := planner.New(m, stages[i:i+1], pts)
		if err != nil {
			t.Fatal(err)
		}
		unit, err := planner.New(m, []planner.Stage{{Trials: 1, Epochs: stages[i].Epochs}}, pts)
		if err != nil {
			t.Fatal(err)
		}
		capped := planner.Plan{Stages: []cost.Allocation{a}, ConcurrencyCap: cap}
		return int(math.Round(single.JCT(capped) / unit.JCT(planner.Uniform(a, 1))))
	}
	// ⌊3000/7⌋ = 428 trials per wave: 857 trials take 3 waves, where
	// ceil(857·7/3000) would be 2.
	if w0 := plannedWaves(0, 0); w0 != 3 {
		t.Fatalf("stage 0 planned in %d waves, want 3", w0)
	}
	fixed := pl.FixedPlan(0, 1e15).Plan
	if fixed.ConcurrencyCap != faas.MaxConcurrency/len(stages) {
		t.Fatalf("FixedPlan carries cap %d, want the 1/%d share %d", fixed.ConcurrencyCap, len(stages), faas.MaxConcurrency/len(stages))
	}
	for _, plan := range []planner.Plan{planner.Uniform(a, len(stages)), fixed} {
		res, err := Run(Config{Workload: w, Stages: stages, Plan: plan, Runner: trainer.NewRunner(3), Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range res.Stages {
			if want := plannedWaves(i, plan.ConcurrencyCap); st.Waves != want {
				t.Errorf("cap %d, stage %d (%d trials x %d functions): executed %d waves, planned %d",
					plan.ConcurrencyCap, i, st.Trials, a.N, st.Waves, want)
			}
		}
	}
}
