package workload

import (
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/sim"
)

// realModelNames is ByName's set; the real ones among them are the models
// whose figures change silently if NewRealEngine ever starts failing.
var realModelNames = []string{
	"LR-Higgs", "SVM-Higgs", "MobileNet-Cifar10", "ResNet50-Cifar10", "BERT-IMDb", "LR-YFCC", "SVM-YFCC",
}

// engineRows are the row counts the tree's three construction sites pass:
// Model.NewEngine (0 = RealEngineRows), predictor.Offline.sampleEngine and
// the trainer's checkpoint-restart test.
var engineRows = []int{0, 400, 1500}

func realModels(t *testing.T) []*Model {
	t.Helper()
	var out []*Model
	for _, name := range realModelNames {
		m, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.Real() {
			out = append(out, m)
		}
	}
	if len(out) != 4 {
		t.Fatalf("%d real models, want 4", len(out))
	}
	return out
}

func newReal(t testing.TB, m *Model, rows int, seed uint64) *realEngine {
	t.Helper()
	e, err := m.NewRealEngine(Hyperparams{LR: m.DefaultLR}, rows, seed)
	if err != nil {
		t.Fatal(err)
	}
	return e.(*realEngine)
}

// reference is the engine the cursor replaced: a private trainer over the
// cursor's own inputs, driven by hand.
type reference struct {
	tr   *ml.Trainer
	last float64
}

func newReference(t testing.TB, e *realEngine) *reference {
	t.Helper()
	tr, err := ml.NewTrainer(e.traj.data, e.traj.key.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &reference{tr: tr, last: tr.Loss()}
}

// restore is Restore's contract on a private trainer: a fresh trainer that
// has run the snapshot's epochs, holding the snapshot's loss.
func (r *reference) restore(e *realEngine, state []float64) error {
	tr, err := ml.NewTrainer(e.traj.data, e.traj.key.cfg)
	if err != nil {
		return err
	}
	for tr.Epoch() < int(state[0]) {
		tr.RunEpoch()
	}
	r.tr, r.last = tr, state[1]
	return nil
}

func (r *reference) snapshot() []float64 {
	return append([]float64{float64(r.tr.Epoch()), r.last}, r.tr.Weights()...)
}

// step advances both one epoch and reports whether loss and snapshot agree
// bit for bit.
func (r *reference) step(e *realEngine) bool {
	r.last = r.tr.RunEpoch()
	got := e.NextEpoch()
	return sameBits([]float64{got, e.Loss()}, []float64{r.last, r.last}) &&
		e.EpochsRun() == r.tr.Epoch() && sameBits(e.AppendSnapshot(nil), r.snapshot())
}

// Every construction site swallows NewRealEngine's error and substitutes a
// curve engine — a silently different table, not a failure — so the error
// path must stay dead for every model and row count in the tree.
func TestRealModelsBuildRealEngines(t *testing.T) {
	for _, m := range realModels(t) {
		for _, rows := range engineRows {
			if _, err := m.NewRealEngine(Hyperparams{LR: m.DefaultLR}, rows, 11); err != nil {
				t.Errorf("%s rows %d: %v", m.Name, rows, err)
			}
		}
		if _, ok := m.NewEngine(Hyperparams{LR: m.DefaultLR}, 11).(*realEngine); !ok {
			t.Errorf("%s: NewEngine fell back to the curve engine", m.Name)
		}
	}
}

// TestSharedCursorMatchesPrivateTrainer walks two cursors of one trajectory
// 120 epochs (fig15 reads 96) against private trainers. Beside engineRows it
// runs 1003 rows, whose batch of 25 on 8 workers leaves a row of each
// 126-row shard unbatched every epoch: the trajectory's lagged epochs must
// still give every row's loss term.
func TestSharedCursorMatchesPrivateTrainer(t *testing.T) {
	for _, m := range realModels(t) {
		for _, rows := range append(engineRows, 1003) {
			first := newReal(t, m, rows, 21)
			second := newReal(t, m, rows, 21) // walks what first recorded
			if first.traj != second.traj {
				t.Fatalf("%s rows %d: equal inputs, two trajectories", m.Name, rows)
			}
			for _, e := range []*realEngine{first, second} {
				ref := newReference(t, e)
				if !sameBits(e.AppendSnapshot(nil), ref.snapshot()) {
					t.Fatalf("%s rows %d: initial snapshot differs", m.Name, rows)
				}
				for ep := 1; ep <= 120; ep++ {
					if !ref.step(e) {
						t.Fatalf("%s rows %d: epoch %d differs from a private trainer", m.Name, rows, ep)
					}
				}
			}
		}
	}
}

// A trajectory generates its own matrix: it must equal, bit for bit, a fresh
// generation from seed^0xda7a, and two learning rates at one seed get two
// trajectories over equal matrices.
func TestRealEngineDataMatchesFreshGeneration(t *testing.T) {
	const seed = 23
	for _, m := range realModels(t) {
		for _, rows := range engineRows {
			n := rows
			if n == 0 {
				n = RealEngineRows
			}
			cfg := dataset.GenConfig{Samples: n, Features: min(m.Dataset.Features, 256)}
			var want *dataset.Matrix
			if m.Dataset.Task == dataset.Regression {
				cfg.NoiseStd = m.GenNoise
				want = dataset.GenerateRegression(sim.NewRand(seed^0xda7a), cfg)
			} else {
				cfg.NoiseFlip = m.GenFlip
				want = dataset.GenerateBinary(sim.NewRand(seed^0xda7a), cfg)
			}
			slow := newReal(t, m, rows, seed)
			fast, err := m.NewRealEngine(Hyperparams{LR: 2 * m.DefaultLR}, rows, seed)
			if err != nil {
				t.Fatal(err)
			}
			if fast.(*realEngine).traj == slow.traj {
				t.Fatalf("%s rows %d: two learning rates, one trajectory", m.Name, rows)
			}
			for _, got := range []*dataset.Matrix{slow.traj.data, fast.(*realEngine).traj.data} {
				if got.Rows != want.Rows || got.Cols != want.Cols || !sameBits(got.X, want.X) || !sameBits(got.Y, want.Y) {
					t.Fatalf("%s rows %d: trajectory matrix differs from fresh generation", m.Name, rows)
				}
			}
		}
	}
}

// Restore rewinds the cursor to the snapshot's epoch: after the current
// snapshot, an older one or the initial state, training continues as a
// private trainer that has run only the snapshot's epochs. (The name is from
// the old contract, under which a diverging state detached the cursor onto a
// trainer that took the weights through SetWeights.)
func TestRestoreDivergingStateMatchesSetWeights(t *testing.T) {
	for _, m := range realModels(t) {
		e := newReal(t, m, 400, 31)
		ref := newReference(t, e)
		initial := e.AppendSnapshot(nil)
		var older []float64
		for ep := 1; ep <= 6; ep++ {
			if !ref.step(e) {
				t.Fatalf("%s: epoch %d differs", m.Name, ep)
			}
			if ep == 3 {
				older = e.AppendSnapshot(nil)
			}
		}
		for _, state := range [][]float64{e.AppendSnapshot(nil), older, initial} {
			if err := e.Restore(state); err != nil {
				t.Fatal(err)
			}
			if err := ref.restore(e, state); err != nil {
				t.Fatal(err)
			}
			if !sameBits(e.AppendSnapshot(nil), ref.snapshot()) {
				t.Fatalf("%s: snapshot after Restore differs", m.Name)
			}
			for ep := 0; ep < 4; ep++ {
				if !ref.step(e) {
					t.Fatalf("%s: epoch %d after Restore differs", m.Name, ep+1)
				}
			}
		}
	}
}

// A checkpoint of the cursor's own epoch (every checkpoint restart) changes
// nothing: the same snapshot, and the same next epoch as a cursor that was
// never restored: the cursor stays on its trajectory.
func TestRestoreOwnStateStaysAttached(t *testing.T) {
	e, twin := newReal(t, LRHiggs(), 400, 37), newReal(t, LRHiggs(), 400, 37)
	for ep := 0; ep < 3; ep++ {
		e.NextEpoch()
		twin.NextEpoch()
	}
	state := e.AppendSnapshot(nil)
	if err := e.Restore(state); err != nil {
		t.Fatal(err)
	}
	if !sameBits(e.AppendSnapshot(nil), state) {
		t.Error("restoring the cursor's own checkpoint changed its snapshot")
	}
	if !sameBits([]float64{e.NextEpoch()}, []float64{twin.NextEpoch()}) {
		t.Error("restoring the cursor's own checkpoint changed its next epoch")
	}
}

// A cursor rewound to its initial state and trained on leaves the other
// cursors of its trajectory on their own epochs.
func TestDetachedCursorLeavesTrajectoryAlone(t *testing.T) {
	m := SVMHiggs()
	a, b, c := newReal(t, m, 400, 41), newReal(t, m, 400, 41), newReal(t, m, 400, 41)
	refA, refB := newReference(t, a), newReference(t, b)
	initial := c.AppendSnapshot(nil)
	for ep := 0; ep < 4; ep++ {
		c.NextEpoch()
		if !refA.step(a) {
			t.Fatalf("a: epoch %d differs", ep+1)
		}
	}
	if err := c.Restore(initial); err != nil {
		t.Fatal(err)
	}
	for ep := 0; ep < 12; ep++ {
		c.NextEpoch()
	}
	for ep := 0; ep < 12; ep++ {
		if !refA.step(a) || !refB.step(b) {
			t.Fatalf("epoch %d: a cursor saw the rewound one", ep+1)
		}
	}
}

func TestEvictedTrajectoryRematerialisesIdentically(t *testing.T) {
	old := trajMaxFloats
	trajMaxFloats = 1 // every insertion evicts all older keys
	t.Cleanup(func() { trajMaxFloats = old })

	m := LRYFCC()
	first := newReal(t, m, 400, 51)
	var want [][]float64
	for ep := 0; ep < 5; ep++ {
		first.NextEpoch()
		want = append(want, first.AppendSnapshot(nil))
	}
	newReal(t, m, 400, 52)
	second := newReal(t, m, 400, 51)
	if second.traj == first.traj {
		t.Fatal("trajectory survived eviction")
	}
	for ep := 0; ep < 5; ep++ {
		second.NextEpoch()
		if !sameBits(second.AppendSnapshot(nil), want[ep]) {
			t.Fatalf("epoch %d: re-materialised trajectory differs", ep+1)
		}
	}
	// The evicted trajectory still serves, and extends for, its cursor.
	first.NextEpoch()
	second.NextEpoch()
	if !sameBits(first.AppendSnapshot(nil), second.AppendSnapshot(nil)) {
		t.Error("evicted and re-materialised trajectories diverge past the recorded prefix")
	}
}

// Cells share a trajectory at -parallel N: construction, reads, frontier
// extension and rewinding all race on one key here (run under -race).
func TestConcurrentCursorsOnOneKey(t *testing.T) {
	m := LRYFCC()
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e, err := m.NewRealEngine(Hyperparams{LR: m.DefaultLR}, 400, 61)
			if err != nil {
				t.Error(err)
				return
			}
			cur := e.(*realEngine)
			tr, err := ml.NewTrainer(cur.traj.data, cur.traj.key.cfg)
			if err != nil {
				t.Error(err)
				return
			}
			ref := &reference{tr: tr, last: tr.Loss()}
			initial := cur.AppendSnapshot(nil)
			if !sameBits(initial, ref.snapshot()) {
				t.Errorf("goroutine %d: initial snapshot differs", g)
			}
			for ep := 1; ep <= 4+3*g; ep++ {
				if g%3 == 1 && ep == g { // a third rewind mid-way
					if err := cur.Restore(initial); err != nil {
						t.Error(err)
					}
					if err := ref.restore(cur, initial); err != nil {
						t.Error(err)
						return
					}
				}
				if !ref.step(cur) {
					t.Errorf("goroutine %d: epoch %d differs from a private trainer", g, ep)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRealEngineCursorZeroAlloc is the steady-state gate for replayed
// epochs: an attached cursor behind the frontier reads, it never trains.
func TestRealEngineCursorZeroAlloc(t *testing.T) {
	m := LRHiggs()
	lead := newReal(t, m, 400, 71)
	for ep := 0; ep < 64; ep++ {
		lead.NextEpoch()
	}
	e := newReal(t, m, 400, 71)
	if avg := testing.AllocsPerRun(50, func() { e.NextEpoch() }); avg != 0 {
		t.Errorf("NextEpoch over a materialised prefix allocates %.1f/op, want 0", avg)
	}
	buf := e.AppendSnapshot(nil)
	if avg := testing.AllocsPerRun(50, func() { buf = e.AppendSnapshot(buf[:0]) }); avg != 0 {
		t.Errorf("AppendSnapshot into a reused buffer allocates %.1f/op, want 0", avg)
	}
}
