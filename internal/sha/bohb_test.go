package sha

import (
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/planner"
	"repro/internal/sim"
	"repro/internal/trainer"
	"repro/internal/workload"
)

func TestTPESamplerUniformUntilMinObs(t *testing.T) {
	w := workload.MobileNet()
	s := NewTPESampler(1)
	for i := 0; i < tpeMinObs-1; i++ {
		hp := s.Suggest(w)
		if hp.LR <= 0 {
			t.Fatal("invalid suggestion")
		}
		s.Observe(hp, 1.0)
	}
	if s.Observations() != tpeMinObs-1 {
		t.Errorf("Observations = %d", s.Observations())
	}
}

func TestTPESamplerConcentratesNearGoodRegion(t *testing.T) {
	w := workload.MobileNet()
	s := NewTPESampler(2)
	// Feed a clear signal: configurations near lr*=0.01 score well,
	// everything else scores badly.
	lrs := []float64{0.008, 0.009, 0.01, 0.011, 0.012, 0.3, 0.5, 1.0, 1e-4, 3e-4, 5, 10}
	for _, lr := range lrs {
		loss := 0.2
		if lr < 0.005 || lr > 0.02 {
			loss = 2.0
		}
		s.Observe(workload.Hyperparams{LR: lr, Momentum: 0.9}, loss)
	}
	within := 0
	const draws = 40
	for i := 0; i < draws; i++ {
		hp := s.Suggest(w)
		if d := math.Abs(math.Log10(hp.LR / 0.01)); d < 1 {
			within++
		}
		if hp.Momentum < 0 || hp.Momentum > 0.99 {
			t.Fatalf("momentum %g out of range", hp.Momentum)
		}
	}
	if within < draws*3/4 {
		t.Errorf("only %d/%d suggestions within a decade of the good region", within, draws)
	}
}

func TestTPESamplerIgnoresInvalidObservations(t *testing.T) {
	s := NewTPESampler(3)
	s.Observe(workload.Hyperparams{LR: 0}, 1)
	s.Observe(workload.Hyperparams{LR: 0.01}, math.NaN())
	s.Observe(workload.Hyperparams{LR: 0.01}, math.Inf(1))
	if s.Observations() != 0 {
		t.Errorf("invalid observations recorded: %d", s.Observations())
	}
}

func TestKDEDensityPeaksAtData(t *testing.T) {
	k := newKDE([]float64{-2, -2.1, -1.9})
	if k.density(-2) <= k.density(0) {
		t.Error("density should peak near the data")
	}
	if k.bandwidth <= 0 {
		t.Error("non-positive bandwidth")
	}
}

func TestRunBOHBEndToEnd(t *testing.T) {
	w := workload.MobileNet()
	m := cost.NewModel(w)
	pareto := m.ParetoSet(cost.DefaultGrid())
	res, sampler, err := RunBOHB(HyperbandConfig{
		Workload:  w,
		MaxEpochs: 9,
		Eta:       3,
		Runner:    trainer.NewRunner(19),
		Seed:      19,
		PlanBracket: func(stages []planner.Stage) (planner.Plan, error) {
			pl, err := planner.New(m, stages, pareto)
			if err != nil {
				return planner.Plan{}, err
			}
			return pl.OptimalStatic(0, 1e15).Plan, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no winner")
	}
	// The sampler must have learned from every stage of every bracket.
	if sampler.Observations() < 9 {
		t.Errorf("sampler saw only %d results", sampler.Observations())
	}
	// The winner's lr should be within roughly a decade of the optimum.
	if d := math.Abs(math.Log10(res.Best.HP.LR / w.LROpt)); d > 1.3 {
		t.Errorf("BOHB winner lr %g is %.1f decades from the optimum", res.Best.HP.LR, d)
	}
}

func TestRunBOHBValidation(t *testing.T) {
	if _, _, err := RunBOHB(HyperbandConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestSampleHookUsed(t *testing.T) {
	w := workload.MobileNet()
	m := cost.NewModel(w)
	pareto := m.ParetoSet(cost.DefaultGrid())
	fixed := workload.Hyperparams{LR: w.LROpt, Momentum: 0.5}
	calls := 0
	stages := planner.SHAStages(8, 2, 1)
	res, err := Run(Config{
		Workload: w, Stages: stages,
		Plan:   planner.Uniform(pareto[0].Alloc, len(stages)),
		Runner: trainer.NewRunner(23), Seed: 23,
		Sample: func(rng *sim.Rand) workload.Hyperparams {
			calls++
			return fixed
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 8 {
		t.Errorf("Sample called %d times, want 8", calls)
	}
	if res.BestTrial.HP != fixed {
		t.Errorf("winner hp = %+v, want the fixed config", res.BestTrial.HP)
	}
}
