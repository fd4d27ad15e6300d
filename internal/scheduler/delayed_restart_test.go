package scheduler

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/predictor"
	"repro/internal/storage"
	"repro/internal/trainer"
	"repro/internal/workload"
)

// newEdgeSession builds a real scheduling session over a small Pareto set, the
// way core wires one (which scheduler cannot import without a cycle).
func newEdgeSession(t *testing.T, w *workload.Model, delta float64, seed uint64) *Scheduler {
	t.Helper()
	m := cost.NewModel(w)
	full := m.Enumerate(cost.Grid{
		Ns:       []int{5, 10, 20, 40},
		MemsMB:   []int{1024, 1769, 3072},
		Storages: storage.Kinds(),
	})
	if len(full) == 0 {
		t.Fatal("no feasible allocations")
	}
	return New(Config{
		Model:          m,
		Candidates:     cost.Pareto(full),
		QoS:            6 * 3600,
		TargetLoss:     w.TargetLoss,
		Delta:          delta,
		DelayedRestart: true,
		Offline:        predictor.NewOffline(w),
		OfflineSeed:    seed,
	})
}

// runRecorded executes one scheduled job capped at maxEpochs, recording the
// epoch of every re-allocation decision the scheduler issued.
func runRecorded(t *testing.T, delta float64, seed uint64, maxEpochs int) (*trainer.Runner, *trainer.Result, []int) {
	t.Helper()
	w := workload.MobileNet()
	sched := newEdgeSession(t, w, delta, seed)
	alloc, _ := sched.Initial()
	if alloc.N == 0 {
		t.Fatal("no initial allocation")
	}
	inner := sched.Controller()
	var triggers []int
	record := func(epoch int, loss float64, elapsed, spent float64) trainer.Decision {
		dec := inner(epoch, loss, elapsed, spent)
		if dec.NewAlloc != nil {
			triggers = append(triggers, epoch)
		}
		return dec
	}
	r := trainer.NewRunner(seed)
	res, err := r.Run(trainer.Config{
		Workload:   w,
		Engine:     w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, seed),
		Alloc:      alloc,
		TargetLoss: w.TargetLoss,
		MaxEpochs:  maxEpochs,
		Controller: record,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, res, triggers
}

// TestDelayedRestartOnFinalEpoch re-runs a recorded session capped exactly
// at the epoch of its first δ trigger: the delayed-restart group is invoked
// on the job's final epoch and never takes over, so Finish must release both
// the active and the pending group (nothing stays admitted).
func TestDelayedRestartOnFinalEpoch(t *testing.T) {
	const (
		delta = 0.001
		seed  = 5
	)
	_, _, triggers := runRecorded(t, delta, seed, 80)
	if len(triggers) == 0 {
		t.Fatal("no δ trigger fired in 80 epochs; loosen the test's delta")
	}
	first := triggers[0]

	r, res, again := runRecorded(t, delta, seed, first)
	if len(again) == 0 || again[0] != first {
		t.Fatalf("replay diverged: triggers %v, want first at %d", again, first)
	}
	if res.Epochs != first {
		t.Fatalf("job ran %d epochs, want %d", res.Epochs, first)
	}
	// The pending group never took over: no trainer-side restart happened,
	// and Finish released every admitted function.
	if res.Restarts != 0 {
		t.Errorf("pending switch on the final epoch counted %d restarts", res.Restarts)
	}
	if inFlight := r.Compute().InFlight(); inFlight != 0 {
		t.Errorf("%d functions still admitted after Finish", inFlight)
	}
}

// TestBackToBackDeltaTriggers picks a seed whose early drift keeps the
// scheduler re-allocating on consecutive epochs: a new trigger lands
// immediately after the previous delayed restart takes over. The group
// lifecycle must stay consistent — every takeover counted, no stacked
// pendings, nothing left admitted.
func TestBackToBackDeltaTriggers(t *testing.T) {
	const (
		delta = 0.001
		seed  = 2
	)
	r, res, triggers := runRecorded(t, delta, seed, 80)
	backToBack := false
	for i := 1; i < len(triggers); i++ {
		if triggers[i] == triggers[i-1]+1 {
			backToBack = true
			break
		}
	}
	if !backToBack {
		t.Fatalf("no back-to-back triggers in %v; loosen the test's delta", triggers)
	}
	// Every delayed switch issued before the final epoch must have taken
	// over exactly once (pendings take over at the end of the next epoch,
	// so they can never stack).
	takeovers := 0
	for _, e := range triggers {
		if e < res.Epochs {
			takeovers++
		}
	}
	if res.Restarts != takeovers {
		t.Errorf("trainer recorded %d restarts, want %d (one per trigger before the last epoch)", res.Restarts, takeovers)
	}
	if inFlight := r.Compute().InFlight(); inFlight != 0 {
		t.Errorf("%d functions still admitted after Finish", inFlight)
	}
	// A delayed trigger at epoch e takes over at the end of epoch e+1, so the
	// allocation changes at epoch e+2 (Trace[e+1] vs Trace[e]). Even when the
	// next trigger fires back-to-back at e+1, the takeover order keeps each
	// switch visible for exactly one epoch.
	for _, e := range triggers {
		if e+1 < len(res.Trace) {
			if res.Trace[e+1].Alloc == res.Trace[e].Alloc {
				t.Errorf("trigger at epoch %d did not change the allocation of epoch %d", e, e+2)
			}
		}
	}
}
