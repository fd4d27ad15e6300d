package trainer

import (
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestSHATrialZeroAlloc is the trainer's steady-state gate: one
// Successive-Halving trial (a MobileNet curve engine, 25 functions on S3,
// 2 epochs, default noise) run into a reused Result touches no heap — the
// job and its state are the runner's, the initial snapshot and the
// checkpoint append into kept buffers, and the store overwrites the
// checkpoint in place.
func TestSHATrialZeroAlloc(t *testing.T) {
	w := workload.MobileNet()
	a := cost.Allocation{N: 25, MemMB: 1769, Storage: storage.S3}
	r := NewRunner(11)
	eng := w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 11)
	var res Result
	trial := func() {
		if err := r.RunEpochs(w, eng, a, 2, &res); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // warm the pool, the trace and the buffers
		trial()
	}
	if avg := testing.AllocsPerRun(100, trial); avg != 0 {
		t.Errorf("a Successive-Halving trial allocates %.2f/trial, want 0", avg)
	}
	if res.Epochs != 2 || len(res.Trace) != 2 || res.JCT <= 0 || res.TotalCost <= 0 {
		t.Errorf("reused result: %d epochs, %d trace rows, JCT %g, cost %g", res.Epochs, len(res.Trace), res.JCT, res.TotalCost)
	}
}

// A result reused across trials of different lengths reads exactly as a
// fresh one, and RunEpochs matches Run on the same substrate bit for bit.
func TestRunEpochsReusedResultMatchesRun(t *testing.T) {
	w := workload.MobileNet()
	a := cost.Allocation{N: 25, MemMB: 1769, Storage: storage.S3}
	engine := func(seed uint64) workload.Engine {
		return w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, seed)
	}
	reused, fresh := NewRunner(13), NewRunner(13)
	var res Result
	for i, epochs := range []int{5, 2, 3} {
		if err := reused.RunEpochs(w, engine(uint64(i)), a, epochs, &res); err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run(Config{Workload: w, Engine: engine(uint64(i)), Alloc: a, MaxEpochs: epochs})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, *want) {
			t.Errorf("trial %d (%d epochs): RunEpochs into a reused result\n%+v\nwant Run's\n%+v", i, epochs, res, *want)
		}
	}
}
