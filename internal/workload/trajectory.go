package workload

import (
	"slices"
	"sync"

	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/sim"
)

// Trajectory table: Engine's contract is that loss depends on epochs run and
// nothing else, so every system, constraint cell and probe that builds a real
// engine from the same inputs walks the same SGD run; it is trained once per
// key and real engines are cursors over it. The key is every input of the
// computation by value — the generator's task and GenConfig and the
// ml.Config, whose Seed also seeds the generator — and a miss generates the
// matrix itself, so a re-miss after eviction regenerates and retrains the
// same bits: the table is bounded FIFO by retained floats, and cursors on an
// evicted trajectory just keep it alive.

type trajKey struct {
	task dataset.Task
	gen  dataset.GenConfig
	cfg  ml.Config
}

// trajectory is the append-only record of one key's SGD run: entry e holds
// the loss and the weights after e epochs. The trainer runs one epoch ahead
// of the losses: a lagged epoch (ml.Trainer.RunEpochLagged) from entry e's
// weights returns entry e's loss and leaves entry e+1's weights, so the
// record always holds one more weight entry than losses, and a trajectory
// trains one speculative epoch past the last loss any cursor read.
type trajectory struct {
	key      trajKey
	data     *dataset.Matrix // generated from key; read-only
	retained int             // floats charged to trajectories.floats, under its lock

	mu      sync.Mutex
	trainer *ml.Trainer // has run len(loss) epochs
	loss    []float64
	weights []float64 // entry e at [e*Cols, (e+1)*Cols): one flat backing slice
}

// trajMaxFloats bounds the float64 elements the table retains (~64 MB);
// oldest trajectories are evicted first. A variable only so tests can
// exercise eviction cheaply.
var trajMaxFloats = 1 << 23

var trajectories = struct {
	sync.Mutex
	m      map[trajKey]*trajectory
	order  []trajKey
	floats int
}{m: make(map[trajKey]*trajectory)}

// trajectoryFor returns the shared trajectory for (task, gen, cfg). On a
// miss it generates the matrix from cfg.Seed^0xda7a and returns the
// trajectory untrained.
func trajectoryFor(task dataset.Task, gen dataset.GenConfig, cfg ml.Config) (*trajectory, error) {
	key := trajKey{task, gen, cfg}
	trajectories.Lock()
	t, ok := trajectories.m[key]
	trajectories.Unlock()
	if ok {
		return t, nil
	}

	// Generate outside the lock; concurrent misses on one key build
	// bit-identical trajectories, and the first one stored wins.
	rng := sim.NewRand(cfg.Seed ^ 0xda7a)
	var data *dataset.Matrix
	if task == dataset.Regression {
		data = dataset.GenerateRegression(rng, gen)
	} else {
		data = dataset.GenerateBinary(rng, gen)
	}
	tr, err := ml.NewTrainer(data, cfg)
	if err != nil {
		return nil, err
	}

	trajectories.Lock()
	defer trajectories.Unlock()
	if prev, ok := trajectories.m[key]; ok {
		return prev, nil
	}
	// The pinned matrix and entry 0's weights (the untrained model) count as
	// retained; the constructor's read of entry 0 is the first charge and
	// evicts for it.
	w0 := slices.Clone(tr.Weights())
	t = &trajectory{key: key, data: data, trainer: tr, weights: w0, retained: len(data.X) + len(data.Y) + len(w0)}
	trajectories.m[key] = t
	trajectories.order = append(trajectories.order, key)
	trajectories.floats += t.retained
	return t, nil
}

// at returns the loss and weights after epoch e, training up to it first if
// no cursor has been that far: each lagged epoch records the loss of the
// last weight entry and the weights of the next. Entries are written once,
// under the lock, so the returned view stays constant after it (growth
// reallocates, never rewrites).
func (t *trajectory) at(e int) (float64, []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cols := t.data.Cols
	for len(t.loss) <= e {
		t.loss = append(t.loss, t.trainer.RunEpochLagged())
		t.weights = append(t.weights, t.trainer.Weights()...)
		t.charge(1 + cols)
	}
	return t.loss[e], t.weights[e*cols : (e+1)*cols : (e+1)*cols]
}

// recorded returns the weights after epoch e if the trajectory has trained
// that far, without training: a snapshot can only hold weights some cursor
// has already read.
func (t *trajectory) recorded(e int) ([]float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cols := t.data.Cols
	if e >= len(t.weights)/cols {
		return nil, false
	}
	return t.weights[e*cols : (e+1)*cols : (e+1)*cols], true
}

// charge accounts n more retained floats to t and evicts oldest-first past
// the bound. An already evicted trajectory is charged nothing: only its
// cursors retain it.
func (t *trajectory) charge(n int) {
	trajectories.Lock()
	defer trajectories.Unlock()
	if trajectories.m[t.key] != t {
		return
	}
	t.retained += n
	trajectories.floats += n
	for trajectories.floats > trajMaxFloats && len(trajectories.order) > 1 {
		oldest := trajectories.order[0]
		trajectories.order = trajectories.order[1:]
		trajectories.floats -= trajectories.m[oldest].retained
		delete(trajectories.m, oldest)
	}
}
