package trainer

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/faas"
	"repro/internal/storage"
	"repro/internal/workload"
)

// arrival is a MobileNet curve-engine job on n functions arriving at at.
func arrival(n int, seed uint64, at float64) Arrival {
	w := workload.MobileNet()
	return Arrival{
		At: at,
		Config: Config{
			Workload:   w,
			Engine:     w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, seed),
			Alloc:      cost.Allocation{N: n, MemMB: 1769, Storage: storage.S3},
			TargetLoss: w.TargetLoss,
			MaxEpochs:  400,
		},
	}
}

// byJob indexes outcomes by their arrival.
func byJob(t *testing.T, n int, outs []Outcome) []Outcome {
	t.Helper()
	if len(outs) != n {
		t.Fatalf("%d outcomes, want %d", len(outs), n)
	}
	idx := make([]Outcome, n)
	for _, o := range outs {
		idx[o.Job] = o
	}
	return idx
}

// TestSingleJobMatchesDirectRun: a lone fixed-allocation job without faults
// gives RunShared the same Result as Run on the same substrate seed.
func TestSingleJobMatchesDirectRun(t *testing.T) {
	outs, err := NewRunner(1).RunShared([]Arrival{arrival(10, 7, 0)})
	if err != nil {
		t.Fatal(err)
	}
	o := byJob(t, 1, outs)[0]
	if !o.Result.Converged {
		t.Fatal("job did not converge")
	}
	if o.Admitted != 0 {
		t.Errorf("lone job queued %gs", o.Admitted)
	}
	direct := new(Result)
	if err := NewRunner(1).Run(arrival(10, 7, 0).Config, direct); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*o.Result, *direct) {
		t.Errorf("shared run\n%+v\nwant Run's\n%+v", *o.Result, *direct)
	}
}

func TestConcurrentJobsShareCapacity(t *testing.T) {
	// Two 1000-function jobs fit the 3000 cap together: no queueing.
	outs, err := NewRunner(2).RunShared([]Arrival{arrival(1000, 1, 0), arrival(1000, 2, 0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range byJob(t, 2, outs) {
		if o.Admitted != 0 {
			t.Errorf("job %d queued %gs though capacity sufficed", o.Job, o.Admitted)
		}
	}
}

func TestOversubscribedJobQueues(t *testing.T) {
	// Three 1500-function jobs cannot all run: the third must wait for a
	// completion.
	outs, err := NewRunner(3).RunShared([]Arrival{
		arrival(1500, 1, 0),
		arrival(1500, 2, 0),
		arrival(1500, 3, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := byJob(t, 3, outs)
	if jobs[0].Admitted != 0 || jobs[1].Admitted != 0 {
		t.Error("first two jobs should be admitted immediately")
	}
	c := jobs[2]
	if c.Admitted <= 0 {
		t.Fatal("third job should have queued")
	}
	// It was admitted exactly when the earliest job finished.
	if first := outs[0]; c.Admitted < first.Finished-1e-6 {
		t.Errorf("third job admitted at %g before the first completion %g", c.Admitted, first.Finished)
	}
	if !c.Result.Converged {
		t.Error("queued job should still converge")
	}
	// What the queue rests on: a capped start fails with an error that,
	// under the trainer's detail, still is the platform's bare sentinel.
	r := NewRunner(3)
	if _, err := r.Compute().InvokeGroup(2000, 1769); err != nil {
		t.Fatal(err)
	}
	if err := new(Job).start(r, arrival(1500, 4, 0).Config, new(Result)); !errors.Is(err, faas.ErrConcurrencyExceeded) {
		t.Errorf("capped start: err = %v, want one that Is faas.ErrConcurrencyExceeded", err)
	}
}

// TestRefusedHeadKeepsItsPlace: a queued job the cap still refuses stays at
// the head of the queue, so a later, smaller arrival cannot overtake it.
// Here z (2000 functions) and then w (1000) queue behind x and y; when y
// finishes w would fit but z does not, so both wait until x finishes.
func TestRefusedHeadKeepsItsPlace(t *testing.T) {
	fixed := func(n, epochs int, at float64) Arrival {
		a := arrival(n, uint64(n+epochs), at)
		a.Config.TargetLoss, a.Config.MaxEpochs = 0, epochs
		return a
	}
	outs, err := NewRunner(5).RunShared([]Arrival{
		fixed(1500, 40, 0), // x
		fixed(1500, 5, 0),  // y
		fixed(2000, 5, 1),  // z
		fixed(1000, 5, 2),  // w
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := byJob(t, 4, outs)
	z, w := jobs[2], jobs[3]
	if z.Admitted <= 1 || w.Admitted <= 2 {
		t.Fatalf("z and w should both queue: admitted at %g, %g", z.Admitted, w.Admitted)
	}
	if z.Admitted > w.Admitted {
		t.Errorf("z (arrived 1) admitted at %g, after w (arrived 2) at %g", z.Admitted, w.Admitted)
	}
}

func TestStaggeredArrivals(t *testing.T) {
	outs, err := NewRunner(4).RunShared([]Arrival{arrival(10, 1, 0), arrival(10, 2, 5000)})
	if err != nil {
		t.Fatal(err)
	}
	late := byJob(t, 2, outs)[1]
	if late.Admitted < 5000 {
		t.Errorf("late job admitted at %g before its arrival", late.Admitted)
	}
	if last := outs[len(outs)-1].Finished; last < late.Finished {
		t.Errorf("the last completion %g precedes the late job's %g", last, late.Finished)
	}
}

func TestControllerRejected(t *testing.T) {
	a := arrival(10, 1, 0)
	a.Config.Controller = func(int, float64, float64, float64) Decision { return Decision{} }
	if _, err := NewRunner(5).RunShared([]Arrival{a}); err == nil {
		t.Error("controller-driven jobs should be rejected")
	}
}

func TestNegativeArrivalRejected(t *testing.T) {
	if _, err := NewRunner(6).RunShared([]Arrival{arrival(10, 1, -1)}); err == nil {
		t.Error("negative arrival should be rejected")
	}
}

func TestDeterministicSchedule(t *testing.T) {
	run := func() []float64 {
		outs, err := NewRunner(7).RunShared([]Arrival{
			arrival(1500, 1, 0),
			arrival(1500, 2, 100),
			arrival(1500, 3, 200),
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
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("shared schedule is not deterministic: %v, then %v", a, b)
	}
}

// TestRunDrivesTheRunnersKernel: RunShared interleaves jobs on the runner's
// own discrete-event kernel and platform account — afterwards the shared
// clock has passed the makespan and every admitted function is released.
func TestRunDrivesTheRunnersKernel(t *testing.T) {
	r := NewRunner(8)
	outs, err := r.RunShared([]Arrival{arrival(10, 1, 0), arrival(10, 2, 50)})
	if err != nil {
		t.Fatal(err)
	}
	if now, span := float64(r.sim.Now()), outs[len(outs)-1].Finished; now < span-1e-6 {
		t.Errorf("runner's clock at %g after a makespan of %g", now, span)
	}
	if n := r.Compute().InFlight(); n != 0 {
		t.Errorf("%d functions still admitted on the runner's account", n)
	}
}
