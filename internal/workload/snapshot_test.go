package workload

import (
	"math"
	"testing"
)

func TestCurveEngineSnapshotRestore(t *testing.T) {
	m := MobileNet()
	eng := m.NewCurveEngine(Hyperparams{LR: m.DefaultLR}, 5)
	for e := 0; e < 5; e++ {
		eng.NextEpoch()
	}
	state := eng.AppendSnapshot(nil)
	if len(state) != 2 {
		t.Fatalf("curve snapshot has %d values", len(state))
	}
	lossAt, epochAt := eng.Loss(), eng.EpochsRun()
	eng.NextEpoch()
	eng.NextEpoch()
	if err := eng.Restore(state); err != nil {
		t.Fatal(err)
	}
	if eng.Loss() != lossAt || eng.EpochsRun() != epochAt {
		t.Errorf("restore: loss %g epoch %d, want %g %d", eng.Loss(), eng.EpochsRun(), lossAt, epochAt)
	}
	// A corrupt checkpoint is refused and leaves the engine where it was,
	// so the trainer's degrade path takes over.
	for _, tc := range []struct {
		name  string
		state []float64
	}{
		{"short", []float64{1}},
		{"long", []float64{1, 0.5, 0}},
		{"NaN epoch", []float64{math.NaN(), 0.5}},
		{"negative epoch", []float64{-1, 0.5}},
		{"fractional epoch", []float64{2.5, 0.5}},
		{"huge epoch", []float64{1 << 63, 0.5}},
		{"infinite epoch", []float64{math.Inf(1), 0.5}},
		{"NaN loss", []float64{3, math.NaN()}},
		{"infinite loss", []float64{3, math.Inf(1)}},
		{"negative infinite loss", []float64{3, math.Inf(-1)}},
	} {
		if err := eng.Restore(tc.state); err == nil {
			t.Errorf("%s state %v accepted", tc.name, tc.state)
		}
		if eng.Loss() != lossAt || eng.EpochsRun() != epochAt {
			t.Errorf("%s state moved the engine to loss %g epoch %d", tc.name, eng.Loss(), eng.EpochsRun())
		}
	}
	for _, ep := range []float64{0, 1 << 53} {
		if err := eng.Restore([]float64{ep, 0.5}); err != nil {
			t.Errorf("epoch %g refused: %v", ep, err)
		}
	}
}

// AppendSnapshot keeps what dst already holds and appends the state after
// it, for both engines.
func TestAppendSnapshotKeepsPrefix(t *testing.T) {
	m := LRHiggs()
	real, err := m.NewRealEngine(Hyperparams{LR: m.DefaultLR}, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{m.NewCurveEngine(Hyperparams{LR: m.DefaultLR}, 5), real} {
		eng.NextEpoch()
		want := eng.AppendSnapshot(nil)
		prefix := []float64{-7, math.Pi}
		for _, dst := range [][]float64{prefix, append(make([]float64, 0, 64), prefix...)} {
			got := eng.AppendSnapshot(dst)
			if !sameBits(got[:len(prefix)], prefix) || !sameBits(got[len(prefix):], want) {
				t.Errorf("%T: AppendSnapshot(%v) = %v, want the prefix then %v", eng, dst, got, want)
			}
		}
	}
}

func TestRealEngineSnapshotRestore(t *testing.T) {
	m := LRHiggs()
	e, err := m.NewRealEngine(Hyperparams{LR: m.DefaultLR}, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		e.NextEpoch()
	}
	state := e.AppendSnapshot(nil)
	lossAt := e.Loss()
	if e.EpochsRun() != 3 {
		t.Fatalf("EpochsRun = %d", e.EpochsRun())
	}
	for i := 0; i < 3; i++ {
		e.NextEpoch()
	}
	if err := e.Restore(state); err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Loss()-lossAt) > 1e-12 {
		t.Errorf("restored loss %g, want %g", e.Loss(), lossAt)
	}
	// Training resumes from the restored weights: the next epoch's loss
	// should track where the snapshot left off, not the later state.
	next := e.NextEpoch()
	if next > lossAt*1.1 {
		t.Errorf("post-restore epoch regressed: %g from %g", next, lossAt)
	}
	if err := e.Restore([]float64{1}); err == nil {
		t.Error("short state accepted")
	}
}

func TestRealEngineLossAccessor(t *testing.T) {
	m := SVMHiggs()
	e, err := m.NewRealEngine(Hyperparams{LR: m.DefaultLR}, 800, 9)
	if err != nil {
		t.Fatal(err)
	}
	initial := e.Loss()
	if initial <= 0 {
		t.Fatalf("initial loss %g", initial)
	}
	after := e.NextEpoch()
	if e.Loss() != after {
		t.Error("Loss() should return the latest epoch's loss")
	}
	if e.EpochsRun() != 1 {
		t.Errorf("EpochsRun = %d, want 1", e.EpochsRun())
	}
}

// A snapshot whose weight vector is one short or one long is refused, and
// leaves the engine able to train; the exact length is accepted.
func TestRealEngineRestoreChecksWeightCount(t *testing.T) {
	m := LRHiggs()
	for _, delta := range []int{-1, 0, +1} {
		e, err := m.NewRealEngine(Hyperparams{LR: m.DefaultLR}, 400, 7)
		if err != nil {
			t.Fatal(err)
		}
		state := e.AppendSnapshot(nil)
		if delta < 0 {
			state = state[:len(state)-1]
		} else if delta > 0 {
			state = append(state, 0.5)
		}
		err = e.Restore(state)
		if (err == nil) != (delta == 0) {
			t.Errorf("Cols%+d weights: Restore error %v", delta, err)
		}
		if loss := e.NextEpoch(); math.IsNaN(loss) {
			t.Errorf("Cols%+d weights: next epoch's loss is NaN", delta)
		}
	}
}

// One restore contract for both engines: a snapshot taken at epoch k,
// restored after the engine has moved on, puts it back at k with the
// snapshot's loss, and a real engine's next epoch is the trajectory's epoch
// k+1 bit for bit. A snapshot whose epoch is not a whole number, or whose
// weights are not the trajectory's at its epoch, is refused and leaves the
// engine where it was.
func TestRestoreContract(t *testing.T) {
	mn, lr, svm := MobileNet(), LRHiggs(), SVMHiggs()
	curve := func() Engine { return mn.NewCurveEngine(Hyperparams{LR: mn.DefaultLR}, 5) }
	real := func(m *Model) func() Engine {
		return func() Engine { return newReal(t, m, 400, 13) }
	}
	for _, tc := range []struct {
		name    string
		engine  func() Engine
		k       int
		corrupt func(state []float64) // nil: restore the snapshot as taken
	}{
		{"curve at 0", curve, 0, nil},
		{"curve at 4", curve, 4, nil},
		{"LR real at 0", real(lr), 0, nil},
		{"LR real at 4", real(lr), 4, nil},
		{"SVM real at 7", real(svm), 7, nil},
		{"curve fractional epoch", curve, 4, func(s []float64) { s[0] = 3.5 }},
		{"real fractional epoch", real(lr), 4, func(s []float64) { s[0] = 3.5 }},
		{"real negative epoch", real(lr), 4, func(s []float64) { s[0] = -1 }},
		{"real NaN epoch", real(lr), 4, func(s []float64) { s[0] = math.NaN() }},
		{"real epoch past 2^53", real(lr), 4, func(s []float64) { s[0] = 1 << 60 }},
		{"real epoch past the trajectory", real(lr), 4, func(s []float64) { s[0] = 1 << 40 }},
		{"real weights of another epoch", real(lr), 4, func(s []float64) { s[0] = 3 }},
		{"real weight off by one ulp", real(lr), 4, func(s []float64) { s[2] = math.Nextafter(s[2], math.Inf(1)) }},
	} {
		eng := tc.engine()
		for range tc.k {
			eng.NextEpoch()
		}
		state := eng.AppendSnapshot(nil)
		lossAt := eng.Loss()
		for range 3 {
			eng.NextEpoch()
		}
		if tc.corrupt != nil {
			tc.corrupt(state)
			before := eng.AppendSnapshot(nil)
			if err := eng.Restore(state); err == nil {
				t.Errorf("%s: corrupt snapshot accepted", tc.name)
			}
			if !sameBits(eng.AppendSnapshot(nil), before) {
				t.Errorf("%s: refused snapshot moved the engine", tc.name)
			}
			continue
		}
		if err := eng.Restore(state); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if eng.EpochsRun() != tc.k || !sameBits([]float64{eng.Loss()}, []float64{lossAt}) {
			t.Errorf("%s: restored to epoch %d loss %g, want %d and %g", tc.name, eng.EpochsRun(), eng.Loss(), tc.k, lossAt)
		}
		if re, ok := eng.(*realEngine); ok {
			want, _ := re.traj.at(tc.k + 1)
			if got := eng.NextEpoch(); !sameBits([]float64{got}, []float64{want}) {
				t.Errorf("%s: next epoch's loss %g, trajectory's epoch %d %g", tc.name, got, tc.k+1, want)
			}
		}
	}
}
