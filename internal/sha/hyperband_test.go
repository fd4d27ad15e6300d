package sha

import (
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/planner"
	"repro/internal/trainer"
	"repro/internal/workload"
)

func TestBracketsStructure(t *testing.T) {
	// R=27, eta=3: s_max=3; brackets s=3..0.
	brs := Brackets(27, 3)
	if len(brs) != 4 {
		t.Fatalf("bracket count = %d, want 4", len(brs))
	}
	// Bracket s=3: 27 trials at 1 epoch, then 9@3, 3@9, 1@27.
	b3 := brs[0]
	if b3.S != 3 {
		t.Fatalf("first bracket s = %d, want 3", b3.S)
	}
	wantTrials := []int{27, 9, 3, 1}
	wantEpochs := []int{1, 3, 9, 27}
	if len(b3.Stages) != 4 {
		t.Fatalf("bracket 3 has %d stages, want 4", len(b3.Stages))
	}
	for i, st := range b3.Stages {
		if st.Trials != wantTrials[i] || st.Epochs != wantEpochs[i] {
			t.Errorf("bracket 3 stage %d = %+v, want (%d, %d)", i, st, wantTrials[i], wantEpochs[i])
		}
	}
	// Bracket s=0: everything trains the full budget, no halving.
	b0 := brs[3]
	if len(b0.Stages) != 1 || b0.Stages[0].Epochs != 27 {
		t.Errorf("bracket 0 = %+v, want one 27-epoch stage", b0.Stages)
	}
	// Total per-bracket work (trial-epochs) is roughly balanced by design.
	work := func(b Bracket) int {
		sum := 0
		for _, st := range b.Stages {
			sum += st.Trials * st.Epochs
		}
		return sum
	}
	w3, w0 := work(brs[0]), work(brs[3])
	if ratio := float64(w3) / float64(w0); ratio < 0.5 || ratio > 3 {
		t.Errorf("bracket work imbalance: s=3 %d vs s=0 %d", w3, w0)
	}
}

func TestRunHyperbandEndToEnd(t *testing.T) {
	w := workload.MobileNet()
	m := cost.NewModel(w)
	pareto := m.ParetoSet(cost.DefaultGrid())
	runner := trainer.NewRunner(13)
	res, err := RunHyperband(HyperbandConfig{
		Workload:  w,
		MaxEpochs: 9,
		Eta:       3,
		Runner:    runner,
		Seed:      13,
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
	if len(res.Brackets) != 3 { // s_max = 2 for R=9, eta=3
		t.Fatalf("bracket count = %d, want 3", len(res.Brackets))
	}
	if res.Best == nil || math.IsInf(res.Best.Loss, 1) {
		t.Fatal("no overall winner")
	}
	var sumJCT, sumCost float64
	for _, br := range res.Brackets {
		sumJCT += br.Result.JCT
		sumCost += br.Result.TotalCost
		if br.BestLoss < res.Best.Loss {
			t.Error("overall best worse than a bracket best")
		}
	}
	if math.Abs(sumJCT-res.JCT) > 1e-9 || math.Abs(sumCost-res.TotalCost) > 1e-9 {
		t.Error("totals do not aggregate the brackets")
	}
}

func TestRunHyperbandValidation(t *testing.T) {
	w := workload.MobileNet()
	if _, err := RunHyperband(HyperbandConfig{Workload: w}); err == nil {
		t.Error("missing runner/planner should error")
	}
	if _, err := RunHyperband(HyperbandConfig{
		Workload: w, Runner: trainer.NewRunner(1),
		PlanBracket: func([]planner.Stage) (planner.Plan, error) { return planner.Plan{}, nil },
		MaxEpochs:   1,
	}); err == nil {
		t.Error("MaxEpochs below eta should error")
	}
}

func TestExplicitStagesValidation(t *testing.T) {
	w := workload.MobileNet()
	m := cost.NewModel(w)
	pareto := m.ParetoSet(cost.DefaultGrid())
	cfg := Config{
		Workload: w,
		Stages:   []planner.Stage{{Trials: 0, Epochs: 1}}, // no population
		Plan:     planner.Uniform(pareto[0].Alloc, 1),
		Runner:   trainer.NewRunner(1),
	}
	if _, err := Run(cfg); err == nil {
		t.Error("a stage shape without trials should error")
	}
}

func TestHyperbandGrowingEpochBudgets(t *testing.T) {
	// Within a bracket, survivors train longer per stage — verify the
	// winner of an aggressive bracket accumulated the full epoch schedule.
	w := workload.ResNet50()
	m := cost.NewModel(w)
	pareto := m.ParetoSet(cost.DefaultGrid())
	br := Brackets(9, 3)[0] // 9 trials: 1, then 3@3, 1@9
	plan := planner.Uniform(pareto[len(pareto)/2].Alloc, len(br.Stages))
	res, err := Run(Config{
		Workload: w, Stages: br.Stages, Plan: plan,
		Runner: trainer.NewRunner(5), Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantEpochs := 0
	for _, st := range br.Stages {
		wantEpochs += st.Epochs
	}
	if res.BestTrial.Epochs != wantEpochs {
		t.Errorf("winner trained %d epochs, want the full schedule %d", res.BestTrial.Epochs, wantEpochs)
	}
}
