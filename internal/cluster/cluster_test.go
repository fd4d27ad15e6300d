package cluster

import (
	"errors"
	"testing"

	"repro/internal/cost"
	"repro/internal/faas"
	"repro/internal/storage"
	"repro/internal/trainer"
	"repro/internal/workload"
)

func job(t *testing.T, name string, n int, seed uint64, arrival float64) Submission {
	t.Helper()
	w := workload.MobileNet()
	return Submission{
		Name:    name,
		Arrival: arrival,
		Config: trainer.Config{
			Workload:   w,
			Engine:     w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, seed),
			Alloc:      cost.Allocation{N: n, MemMB: 1769, Storage: storage.S3},
			TargetLoss: w.TargetLoss,
			MaxEpochs:  400,
		},
	}
}

func TestSingleJobMatchesDirectRun(t *testing.T) {
	outs, err := Run(trainer.NewRunner(1), []Submission{job(t, "a", 10, 7, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("%d outcomes", len(outs))
	}
	o := outs[0]
	if !o.Result.Converged {
		t.Fatal("job did not converge")
	}
	if o.QueueDelay != 0 {
		t.Errorf("lone job queued %gs", o.QueueDelay)
	}
	// Same substrate seed, same engine seed: the direct run must agree.
	direct, err := trainer.NewRunner(1).Run(job(t, "a", 10, 7, 0).Config)
	if err != nil {
		t.Fatal(err)
	}
	if o.Result.Epochs != direct.Epochs {
		t.Errorf("cluster run epochs %d != direct %d", o.Result.Epochs, direct.Epochs)
	}
}

func TestConcurrentJobsShareCapacity(t *testing.T) {
	// Two 1000-function jobs fit the 3000 cap together: no queueing.
	outs, err := Run(trainer.NewRunner(2), []Submission{
		job(t, "a", 1000, 1, 0),
		job(t, "b", 1000, 2, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if o.QueueDelay != 0 {
			t.Errorf("%s queued %gs though capacity sufficed", o.Name, o.QueueDelay)
		}
	}
}

func TestOversubscribedJobQueues(t *testing.T) {
	// Three 1500-function jobs cannot all run: the third must wait for a
	// completion.
	outs, err := Run(trainer.NewRunner(3), []Submission{
		job(t, "a", 1500, 1, 0),
		job(t, "b", 1500, 2, 0),
		job(t, "c", 1500, 3, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Outcome{}
	for _, o := range outs {
		byName[o.Name] = o
	}
	if byName["a"].QueueDelay != 0 || byName["b"].QueueDelay != 0 {
		t.Error("first two jobs should be admitted immediately")
	}
	c := byName["c"]
	if c.QueueDelay <= 0 {
		t.Fatal("third job should have queued")
	}
	// It was admitted exactly when the earliest job finished.
	first := outs[0]
	if c.Admitted < first.Finished-1e-6 {
		t.Errorf("c admitted at %g before the first completion %g", c.Admitted, first.Finished)
	}
	if !c.Result.Converged {
		t.Error("queued job should still converge")
	}
	// What the queue rests on: a capped StartJob fails with an error that,
	// under the trainer's detail, still is the platform's bare sentinel.
	r := trainer.NewRunner(3)
	if _, err := r.Compute().InvokeGroup(2000, 1769); err != nil {
		t.Fatal(err)
	}
	if _, err := r.StartJob(job(t, "d", 1500, 4, 0).Config); !errors.Is(err, faas.ErrConcurrencyExceeded) {
		t.Errorf("capped StartJob: err = %v, want one that Is faas.ErrConcurrencyExceeded", err)
	}
}

func TestStaggeredArrivals(t *testing.T) {
	outs, err := Run(trainer.NewRunner(4), []Submission{
		job(t, "early", 10, 1, 0),
		job(t, "late", 10, 2, 5000),
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Outcome{}
	for _, o := range outs {
		byName[o.Name] = o
	}
	if byName["late"].Admitted < 5000 {
		t.Errorf("late job admitted at %g before its arrival", byName["late"].Admitted)
	}
	if got := Makespan(outs); got < byName["late"].Finished {
		t.Errorf("makespan %g below the last completion", got)
	}
}

func TestControllerRejected(t *testing.T) {
	s := job(t, "a", 10, 1, 0)
	s.Config.Controller = func(int, float64, float64, float64) trainer.Decision { return trainer.Decision{} }
	if _, err := Run(trainer.NewRunner(5), []Submission{s}); err == nil {
		t.Error("controller-driven jobs should be rejected")
	}
}

func TestNegativeArrivalRejected(t *testing.T) {
	if _, err := Run(trainer.NewRunner(6), []Submission{job(t, "a", 10, 1, -1)}); err == nil {
		t.Error("negative arrival should be rejected")
	}
}

func TestDeterministicSchedule(t *testing.T) {
	run := func() []float64 {
		outs, err := Run(trainer.NewRunner(7), []Submission{
			job(t, "a", 1500, 1, 0),
			job(t, "b", 1500, 2, 100),
			job(t, "c", 1500, 3, 200),
		})
		if err != nil {
			t.Fatal(err)
		}
		var times []float64
		for _, o := range outs {
			times = append(times, o.Finished)
		}
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("cluster schedule is not deterministic")
		}
	}
}

// TestRunDrivesTheRunnersKernel: the scheduler interleaves jobs on the
// runner's own discrete-event kernel and platform account, whatever runner
// it is handed — afterwards the shared clock has passed the makespan and
// every admitted function is released.
func TestRunDrivesTheRunnersKernel(t *testing.T) {
	r := trainer.NewRunner(8)
	outs, err := Run(r, []Submission{job(t, "a", 10, 1, 0), job(t, "b", 10, 2, 50)})
	if err != nil {
		t.Fatal(err)
	}
	if now, span := float64(r.Backend.Sim().Now()), Makespan(outs); now < span-1e-6 {
		t.Errorf("runner's clock at %g after a makespan of %g", now, span)
	}
	if n := r.Compute().InFlight(); n != 0 {
		t.Errorf("%d functions still admitted on the runner's account", n)
	}
}
