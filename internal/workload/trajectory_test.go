package workload

import (
	"sync"
	"testing"

	"repro/internal/ml"
)

// realModelNames is ByName's set; the real ones among them are the models
// whose figures change silently if NewRealEngine ever starts failing.
var realModelNames = []string{
	"LR-Higgs", "SVM-Higgs", "MobileNet-Cifar10", "ResNet50-Cifar10", "BERT-IMDb", "LR-YFCC", "SVM-YFCC",
}

// engineRows are the row counts the tree's three construction sites pass:
// Model.NewEngine (0 = RealEngineRows), predictor.Offline.sampleEngine and
// sha.newEngine.
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
	tr, err := ml.NewTrainer(e.traj.key.data, e.traj.key.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &reference{tr: tr, last: tr.Loss()}
}

// restore is the parent realEngine.Restore: loss and weights, no rewind.
func (r *reference) restore(state []float64) {
	r.last = state[1]
	r.tr.SetWeights(state[2:])
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
		e.EpochsRun() == r.tr.Epoch() && sameBits(e.Snapshot(), r.snapshot())
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

func TestSharedCursorMatchesPrivateTrainer(t *testing.T) {
	for _, m := range realModels(t) {
		for _, rows := range engineRows {
			first := newReal(t, m, rows, 21)
			second := newReal(t, m, rows, 21) // walks what first recorded
			if first.traj != second.traj {
				t.Fatalf("%s rows %d: equal inputs, two trajectories", m.Name, rows)
			}
			for _, e := range []*realEngine{first, second} {
				ref := newReference(t, e)
				if !sameBits(e.Snapshot(), ref.snapshot()) {
					t.Fatalf("%s rows %d: initial snapshot differs", m.Name, rows)
				}
				for ep := 1; ep <= 30; ep++ {
					if !ref.step(e) {
						t.Fatalf("%s rows %d: epoch %d differs from a private trainer", m.Name, rows, ep)
					}
				}
			}
		}
	}
}

// Restore never rewinds the batch cursors: after an older snapshot, or the
// initial state, training continues on the RNG draws of the epochs already
// run. The cursor detaches to do so and must match SetWeights on a trainer
// that kept going.
func TestRestoreDivergingStateMatchesSetWeights(t *testing.T) {
	for _, m := range realModels(t) {
		e := newReal(t, m, 400, 31)
		ref := newReference(t, e)
		initial := e.Snapshot()
		var older []float64
		for ep := 1; ep <= 6; ep++ {
			if !ref.step(e) {
				t.Fatalf("%s: epoch %d differs", m.Name, ep)
			}
			if ep == 3 {
				older = e.Snapshot()
			}
		}
		for _, state := range [][]float64{e.Snapshot(), older, initial} {
			if err := e.Restore(state); err != nil {
				t.Fatal(err)
			}
			ref.restore(state)
			if !sameBits(e.Snapshot(), ref.snapshot()) {
				t.Fatalf("%s: snapshot after Restore differs", m.Name)
			}
			for ep := 0; ep < 4; ep++ {
				if !ref.step(e) {
					t.Fatalf("%s: epoch %d after Restore differs", m.Name, ep+1)
				}
			}
		}
		if e.own == nil {
			t.Errorf("%s: diverging Restore left the cursor attached", m.Name)
		}
	}
}

func TestRestoreOwnStateStaysAttached(t *testing.T) {
	e := newReal(t, LRHiggs(), 400, 37)
	for ep := 0; ep < 3; ep++ {
		e.NextEpoch()
	}
	if err := e.Restore(e.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if e.own != nil {
		t.Error("a checkpoint of the cursor's own epoch detached it")
	}
}

func TestDetachedCursorLeavesTrajectoryAlone(t *testing.T) {
	m := SVMHiggs()
	a, b, c := newReal(t, m, 400, 41), newReal(t, m, 400, 41), newReal(t, m, 400, 41)
	refA, refB := newReference(t, a), newReference(t, b)
	initial := c.Snapshot()
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
		c.NextEpoch() // private from here on
	}
	for ep := 0; ep < 12; ep++ {
		if !refA.step(a) || !refB.step(b) {
			t.Fatalf("epoch %d: an attached cursor saw the detached one", ep+1)
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
		want = append(want, first.Snapshot())
	}
	newReal(t, m, 400, 52)
	second := newReal(t, m, 400, 51)
	if second.traj == first.traj {
		t.Fatal("trajectory survived eviction")
	}
	for ep := 0; ep < 5; ep++ {
		second.NextEpoch()
		if !sameBits(second.Snapshot(), want[ep]) {
			t.Fatalf("epoch %d: re-materialised trajectory differs", ep+1)
		}
	}
	// The evicted trajectory still serves, and extends for, its cursor.
	first.NextEpoch()
	second.NextEpoch()
	if !sameBits(first.Snapshot(), second.Snapshot()) {
		t.Error("evicted and re-materialised trajectories diverge past the recorded prefix")
	}
}

// Cells share a trajectory at -parallel N: construction, reads, frontier
// extension and detaching all race on one key here (run under -race).
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
			tr, err := ml.NewTrainer(cur.traj.key.data, cur.traj.key.cfg)
			if err != nil {
				t.Error(err)
				return
			}
			ref := &reference{tr: tr, last: tr.Loss()}
			initial := cur.Snapshot()
			if !sameBits(initial, ref.snapshot()) {
				t.Errorf("goroutine %d: initial snapshot differs", g)
			}
			for ep := 1; ep <= 4+3*g; ep++ {
				if g%3 == 1 && ep == g { // a third detach mid-way
					if err := cur.Restore(initial); err != nil {
						t.Error(err)
					}
					ref.restore(initial)
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
	if avg := testing.AllocsPerRun(50, func() { e.Snapshot() }); avg > 1 {
		t.Errorf("Snapshot allocates %.1f/op, want at most the returned vector", avg)
	}
}
