package workload

import (
	"sync"

	"repro/internal/dataset"
	"repro/internal/ml"
)

// Trajectory table: Engine's contract is that loss depends on epochs run and
// nothing else, so every system, constraint cell and probe that builds a real
// engine from the same inputs walks the same SGD run; it is trained once per
// key and real engines are cursors over it. As with the generation cache its
// matrices come from, the key captures every input of the computation, so a
// re-miss after eviction retrains the same bits: the table is bounded FIFO by
// retained floats, and cursors on an evicted trajectory just keep it alive.

type trajKey struct {
	data *dataset.Matrix
	cfg  ml.Config
}

// trajectory is the append-only record of one key's SGD run: entry e holds
// the loss and the weights after e epochs.
type trajectory struct {
	key      trajKey
	retained int // floats charged to trajectories.floats, under its lock

	mu      sync.Mutex
	trainer *ml.Trainer // has run len(loss)-1 epochs once entry 0 exists
	loss    []float64
	weights []float64 // entry e at [e*Cols, (e+1)*Cols): one flat backing slice
}

// trajMaxFloats bounds the float64 elements the table retains (~64 MB, the
// generation cache's own bound); oldest trajectories are evicted first. A
// matrix shared by several trajectories is charged to each, which only
// evicts sooner. A variable only so tests can exercise eviction cheaply.
var trajMaxFloats = 1 << 23

var trajectories = struct {
	sync.Mutex
	m      map[trajKey]*trajectory
	order  []trajKey
	floats int
}{m: make(map[trajKey]*trajectory)}

// trajectoryFor returns the shared trajectory for (data, cfg), creating it
// untrained on a miss.
func trajectoryFor(data *dataset.Matrix, cfg ml.Config) (*trajectory, error) {
	key := trajKey{data, cfg}
	trajectories.Lock()
	defer trajectories.Unlock()
	if t, ok := trajectories.m[key]; ok {
		return t, nil
	}
	tr, err := ml.NewTrainer(data, cfg)
	if err != nil {
		return nil, err
	}
	// The pinned matrix counts as retained; the constructor's read of entry
	// 0 is the first charge and evicts for it.
	t := &trajectory{key: key, trainer: tr, retained: len(data.X) + len(data.Y)}
	trajectories.m[key] = t
	trajectories.order = append(trajectories.order, key)
	trajectories.floats += t.retained
	return t, nil
}

// at returns the loss and weights after epoch e, training up to it first if
// no cursor has been that far. Entries are written once, under the lock, so
// the returned view stays constant after it (growth reallocates, never rewrites).
func (t *trajectory) at(e int) (float64, []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cols := t.key.data.Cols
	for len(t.loss) <= e {
		var loss float64
		if len(t.loss) == 0 {
			loss = t.trainer.Loss() // entry 0: the untrained model
		} else {
			loss = t.trainer.RunEpoch()
		}
		t.loss = append(t.loss, loss)
		t.weights = append(t.weights, t.trainer.Weights()...)
		t.charge(1 + cols)
	}
	return t.loss[e], t.weights[e*cols : (e+1)*cols : (e+1)*cols]
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
