package trainer

import (
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestSHATrialZeroAlloc is the trainer's steady-state gate: one
// Successive-Halving trial (a MobileNet curve engine, 25 functions on S3,
// 2 epochs, default noise) run into a reused Result touches no heap — the
// job is the runner's, the initial snapshot and the checkpoint append into
// kept buffers, and the store overwrites the checkpoint in place.
func TestSHATrialZeroAlloc(t *testing.T) {
	w := workload.MobileNet()
	a := cost.Allocation{N: 25, MemMB: 1769, Storage: storage.S3}
	r := NewRunner(11)
	eng := w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 11)
	var res Result
	trial := func() {
		if err := r.Run(Config{Workload: w, Engine: eng, Alloc: a, MaxEpochs: 2}, &res); err != nil {
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

// A result reused across runs of different lengths reads exactly as a
// fresh one, and the runner's own job matches a fresh job stepped on the
// same substrate bit for bit (its driver advancing the shared clock as Run
// does).
func TestReusedResultMatchesFreshAndStepped(t *testing.T) {
	w := workload.MobileNet()
	a := cost.Allocation{N: 25, MemMB: 1769, Storage: storage.S3}
	reused, fresh, stepped := NewRunner(13), NewRunner(13), NewRunner(13)
	var res Result
	for i, epochs := range []int{5, 2, 3} {
		cfg := func() Config {
			return Config{Workload: w, Engine: w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, uint64(i)), Alloc: a, MaxEpochs: epochs}
		}
		if err := reused.Run(cfg(), &res); err != nil {
			t.Fatal(err)
		}
		want := new(Result)
		if err := fresh.Run(cfg(), want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, *want) {
			t.Errorf("trial %d (%d epochs): Run into a reused result\n%+v\nwant a fresh result's\n%+v", i, epochs, res, *want)
		}
		job := new(Job)
		if err := job.start(stepped, cfg(), new(Result)); err != nil {
			t.Fatal(err)
		}
		for advanced := 0.0; !job.done; advanced = job.clock {
			if err := job.step(); err != nil {
				t.Fatal(err)
			}
			s := stepped.sim
			s.RunUntil(s.Now() + sim.Time(job.clock-advanced))
		}
		if got := job.finish(); !reflect.DeepEqual(*got, *want) {
			t.Errorf("trial %d (%d epochs): a stepped job\n%+v\nwant Run's\n%+v", i, epochs, *got, *want)
		}
	}
}
