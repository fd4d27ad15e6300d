package ml

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/sim"
)

func binData(n, d int, flip float64, seed uint64) *dataset.Matrix {
	return dataset.GenerateBinary(sim.NewRand(seed), dataset.GenConfig{Samples: n, Features: d, NoiseFlip: flip})
}

// numericalGradient checks an analytic gradient against finite differences.
func numericalGradient(t *testing.T, obj Objective, m *dataset.Matrix) {
	t.Helper()
	w := make([]float64, m.Cols)
	rng := sim.NewRand(99)
	for i := range w {
		w[i] = rng.NormFloat64() * 0.3
	}
	idx := make([]int, m.Rows)
	for i := range idx {
		idx[i] = i
	}
	grad := make([]float64, len(w))
	obj.Gradient(w, m, idx, grad)
	const h = 1e-6
	for i := range w {
		wp, wm := Clone(w), Clone(w)
		wp[i] += h
		wm[i] -= h
		num := (obj.Loss(wp, m) - obj.Loss(wm, m)) / (2 * h)
		if math.Abs(num-grad[i]) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("%s: grad[%d] = %g, numerical %g", obj.Name(), i, grad[i], num)
		}
	}
}

func TestLogisticGradientMatchesNumerical(t *testing.T) {
	numericalGradient(t, Logistic{L2: 0.01}, binData(60, 5, 0.1, 1))
}

func TestSquaredGradientMatchesNumerical(t *testing.T) {
	m := dataset.GenerateRegression(sim.NewRand(2), dataset.GenConfig{Samples: 60, Features: 5, NoiseStd: 1})
	numericalGradient(t, Squared{L2: 0.01}, m)
}

func TestHingeGradientMatchesNumericalAwayFromKink(t *testing.T) {
	// The hinge is non-differentiable at y w·x == 1; with random w the
	// measure of kink points is zero, so finite differences still agree.
	numericalGradient(t, Hinge{L2: 0.01}, binData(60, 5, 0.1, 3))
}

func TestObjectiveByName(t *testing.T) {
	for _, name := range []string{"logistic", "hinge", "squared"} {
		obj, err := ObjectiveByName(name, 0.1)
		if err != nil {
			t.Fatalf("ObjectiveByName(%q): %v", name, err)
		}
		if obj.Name() != name {
			t.Errorf("Name = %q, want %q", obj.Name(), name)
		}
	}
	if _, err := ObjectiveByName("mse", 0); err == nil {
		t.Error("unknown objective should error")
	}
}

func TestLogisticTrainingConverges(t *testing.T) {
	data := binData(4000, 10, 0, 5)
	tr, err := NewTrainer(data, Config{Objective: Logistic{}, Workers: 4, BatchPerWkr: 100, LearningRate: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	initial := tr.Loss()
	trace := tr.TrainToLoss(0.3, 50)
	if len(trace) == 0 {
		t.Fatal("no epochs ran")
	}
	final := trace[len(trace)-1]
	if final >= initial {
		t.Fatalf("loss did not decrease: %g -> %g", initial, final)
	}
	if final > 0.35 {
		t.Errorf("separable data should reach low logloss, got %g", final)
	}
	if acc := tr.Accuracy(); acc < 0.9 {
		t.Errorf("accuracy = %g, want > 0.9 on separable data", acc)
	}
}

func TestHingeTrainingConverges(t *testing.T) {
	data := binData(4000, 10, 0, 7)
	tr, err := NewTrainer(data, Config{Objective: Hinge{L2: 0.001}, Workers: 4, BatchPerWkr: 100, LearningRate: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr.TrainToLoss(0.2, 60)
	if acc := tr.Accuracy(); acc < 0.9 {
		t.Errorf("SVM accuracy = %g, want > 0.9", acc)
	}
}

func TestSquaredTrainingConverges(t *testing.T) {
	data := dataset.GenerateRegression(sim.NewRand(11), dataset.GenConfig{Samples: 4000, Features: 8, NoiseStd: 0.5})
	tr, err := NewTrainer(data, Config{Objective: Squared{}, Workers: 2, BatchPerWkr: 100, LearningRate: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	initial := tr.Loss()
	trace := tr.TrainToLoss(0.2, 80)
	final := trace[len(trace)-1]
	if final >= initial/2 {
		t.Errorf("regression barely converged: %g -> %g", initial, final)
	}
}

func TestNoisyDataHasLossFloor(t *testing.T) {
	// With 22% label flips the logloss cannot approach zero; it should
	// plateau near the Bayes floor (~0.5-0.7), the regime the Higgs
	// experiments target (target loss 0.66).
	data := binData(6000, 10, 0.22, 13)
	tr, err := NewTrainer(data, Config{Objective: Logistic{}, Workers: 4, BatchPerWkr: 150, LearningRate: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	trace := tr.TrainToLoss(0.01, 60)
	final := trace[len(trace)-1]
	if final < 0.4 {
		t.Errorf("loss %g below plausible Bayes floor for 22%% flip noise", final)
	}
	if final > 0.69 {
		t.Errorf("loss %g did not improve below chance (ln2)", final)
	}
}

func TestTrainerRejectsBadConfig(t *testing.T) {
	data := binData(10, 2, 0, 1)
	cases := []Config{
		{Objective: Logistic{}, Workers: 0, LearningRate: 0.1},
		{Objective: nil, Workers: 1, LearningRate: 0.1},
		{Objective: Logistic{}, Workers: 1, LearningRate: 0},
		{Objective: Logistic{}, Workers: 100, LearningRate: 0.1}, // more workers than rows
	}
	for i, cfg := range cases {
		if _, err := NewTrainer(data, cfg); err == nil {
			t.Errorf("case %d: config %+v should be rejected", i, cfg)
		}
	}
}

func TestIterationsPerEpoch(t *testing.T) {
	data := binData(1000, 4, 0, 1)
	tr, err := NewTrainer(data, Config{Objective: Logistic{}, Workers: 4, BatchPerWkr: 50, LearningRate: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.IterationsPerEpoch(); got != 5 { // 250 rows per shard / 50
		t.Errorf("IterationsPerEpoch = %d, want 5", got)
	}
	// Full-shard batches collapse to one iteration per epoch.
	tr2, _ := NewTrainer(data, Config{Objective: Logistic{}, Workers: 4, BatchPerWkr: 0, LearningRate: 0.1, Seed: 1})
	if got := tr2.IterationsPerEpoch(); got != 1 {
		t.Errorf("full-batch IterationsPerEpoch = %d, want 1", got)
	}
}

func TestWorkerBatchesCoverShard(t *testing.T) {
	shard := binData(100, 2, 0, 1)
	w := NewWorker(shard, sim.NewRand(1))
	seen := make(map[int]bool)
	for i := 0; i < 10; i++ {
		for _, idx := range w.NextBatch(10) {
			seen[idx] = true
		}
	}
	if len(seen) != 100 {
		t.Errorf("10 batches of 10 covered %d distinct rows, want 100", len(seen))
	}
}

func TestWorkerReshuffles(t *testing.T) {
	shard := binData(20, 2, 0, 1)
	w := NewWorker(shard, sim.NewRand(1))
	first := append([]int(nil), w.NextBatch(20)...)
	second := w.NextBatch(20)
	same := true
	for i := range first {
		if first[i] != second[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("second pass used an identical permutation; reshuffle missing")
	}
}

func TestWorkerGradientsMatchSequential(t *testing.T) {
	data := binData(400, 6, 0.1, 21)
	tr, err := NewTrainer(data, Config{Objective: Logistic{}, Workers: 4, BatchPerWkr: 25, LearningRate: 0.1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	grads := tr.WorkerGradients()
	if len(grads) != 4 {
		t.Fatalf("got %d gradients", len(grads))
	}
	for i, g := range grads {
		if len(g) != data.Cols {
			t.Errorf("gradient %d has %d dims", i, len(g))
		}
		if Norm2(g) == 0 {
			t.Errorf("gradient %d is zero", i)
		}
	}
}

func TestSetWeightsRestoresState(t *testing.T) {
	data := binData(500, 4, 0, 23)
	tr, _ := NewTrainer(data, Config{Objective: Logistic{}, Workers: 2, BatchPerWkr: 50, LearningRate: 0.3, Seed: 1})
	tr.RunEpoch()
	snapshot := Clone(tr.Weights())
	lossAt := tr.Loss()
	tr.RunEpoch()
	tr.SetWeights(snapshot)
	if got := tr.Loss(); math.Abs(got-lossAt) > 1e-12 {
		t.Errorf("restored loss %g, want %g", got, lossAt)
	}
}

// SkipEpochs leaves the batch cursors where training would have: a trainer
// that skipped n epochs and one that ran them agree bit for bit once both
// hold the same weights. 330 rows over 3 workers at batch 40 reshuffles
// mid-epoch and leaves a ragged tail, so the draws are not trivially aligned.
func TestSkipEpochsMatchesRunEpochDraws(t *testing.T) {
	data := binData(330, 6, 0.1, 29)
	cfg := Config{Objective: Logistic{L2: 1e-4}, Workers: 3, BatchPerWkr: 40, LearningRate: 0.2, Seed: 13}
	ran, _ := NewTrainer(data, cfg)
	skipped, _ := NewTrainer(data, cfg)
	for e := 0; e < 5; e++ {
		ran.RunEpoch()
	}
	skipped.SkipEpochs(5)
	if skipped.Epoch() != 5 || skipped.Loss() != ran.cfg.Objective.Loss(make([]float64, data.Cols), data) {
		t.Fatalf("SkipEpochs: epoch %d, or the weights moved", skipped.Epoch())
	}
	ran.SetWeights(make([]float64, data.Cols))
	for e := 0; e < 4; e++ {
		if a, b := ran.RunEpoch(), skipped.RunEpoch(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("epoch %d after the skip: %g vs %g", e+1, a, b)
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	run := func() []float64 {
		tr, _ := NewTrainer(binData(800, 5, 0.1, 31), Config{Objective: Logistic{}, Workers: 4, BatchPerWkr: 40, LearningRate: 0.2, Seed: 7})
		return tr.TrainToLoss(0, 5)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("training not deterministic at epoch %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestGradientStepReducesLossProperty(t *testing.T) {
	// For a smooth convex objective a sufficiently small full-batch step
	// must not increase the loss.
	data := binData(200, 4, 0.1, 41)
	obj := Logistic{}
	idx := make([]int, data.Rows)
	for i := range idx {
		idx[i] = i
	}
	if err := quick.Check(func(seed uint16) bool {
		rng := sim.NewRand(uint64(seed))
		w := make([]float64, data.Cols)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		before := obj.Loss(w, data)
		grad := make([]float64, len(w))
		obj.Gradient(w, data, idx, grad)
		Axpy(-1e-3, grad, w)
		return obj.Loss(w, data) <= before+1e-12
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
