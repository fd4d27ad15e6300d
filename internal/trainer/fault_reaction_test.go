package trainer

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/storage"
	"repro/internal/workload"
)

// faultJob runs a noiseless MobileNet job under a fault schedule so every
// divergence from a clean run is attributable to the schedule alone.
func faultJob(t *testing.T, sched *fault.Schedule, seed uint64, maxEpochs int, ctrl Controller) (*Result, *Runner) {
	t.Helper()
	w := workload.MobileNet()
	r := NewRunner(seed)
	r.Noise = NoNoise()
	res, err := r.Run(Config{
		Workload:   w,
		Engine:     w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, seed),
		Alloc:      cost.Allocation{N: 10, MemMB: 1769, Storage: storage.S3},
		MaxEpochs:  maxEpochs,
		Faults:     sched,
		Controller: ctrl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, r
}

func TestAttachedEmptyScheduleIsBitIdentical(t *testing.T) {
	// The acceptance bar for the fault subsystem: attaching an empty
	// schedule must not perturb a single bit — the dice-roll model still
	// runs, every rng draw lands identically.
	base, err := failureJob(0.01, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.MobileNet()
	r := NewRunner(2)
	r.Noise.FailureRate = 0.01
	attached, err := r.Run(Config{
		Workload:   w,
		Engine:     w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 2),
		Alloc:      cost.Allocation{N: 10, MemMB: 1769, Storage: storage.S3},
		TargetLoss: w.TargetLoss,
		MaxEpochs:  400,
		Faults:     fault.MustNew(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, attached) {
		t.Errorf("empty schedule perturbed the run:\nbase     %+v\nattached %+v", base, attached)
	}
}

func TestScheduledKillAbortsAndBills(t *testing.T) {
	clean, rClean := faultJob(t, nil, 4, 5, nil)
	faulty, rFaulty := faultJob(t, fault.MustNew(fault.KillAt(0, 2)), 4, 5, nil)

	if faulty.Failures != 1 {
		t.Fatalf("Failures = %d, want 1 (one kill event)", faulty.Failures)
	}
	if faulty.Epochs != clean.Epochs {
		t.Fatalf("epochs diverged: %d vs %d", faulty.Epochs, clean.Epochs)
	}
	if faulty.FailureTime <= 0 || faulty.JCT <= clean.JCT {
		t.Errorf("kill did not cost wall time: failure %g, JCT %g vs %g",
			faulty.FailureTime, faulty.JCT, clean.JCT)
	}
	// The two killed sandboxes re-invoked against the real platform.
	mc, mf := rClean.Compute().Meter(), rFaulty.Compute().Meter()
	if mf.Invocations != mc.Invocations+2 {
		t.Errorf("invocations = %d, want %d (clean) + 2 re-invocations", mf.Invocations, mc.Invocations)
	}
	// The kill landed before the epoch began (At=0), so nothing was wasted:
	// the whole failure time is the two replacements' recovery run, and the
	// cost delta is exactly their recovery compute plus invoke fees.
	perRecover := rFaulty.Prices.ComputeOnlyCost(faulty.FailureTime, 1769)
	want := 2*perRecover + 2*rFaulty.Prices.FunctionInvoke
	got := faulty.TotalCost - clean.TotalCost
	if diff := math.Abs(got - want); diff > 1e-9*want {
		t.Errorf("kill cost delta = %g, want %g", got, want)
	}
	if mf.ComputeCost <= mc.ComputeCost {
		t.Error("platform meter did not charge the recovery compute")
	}
}

func TestScheduledStragglerAndBrownoutInflateEpochs(t *testing.T) {
	clean, _ := faultJob(t, nil, 4, 3, nil)
	sched := fault.MustNew(
		fault.StragglerWindow(0, 1e9, 2),
		fault.BrownoutWindow(0, 1e9, 3, 0),
	)
	slow, _ := faultJob(t, sched, 4, 3, nil)
	if got, want := slow.ComputeTime, 2*clean.ComputeTime; math.Abs(got-want) > 1e-12*want {
		t.Errorf("straggler ComputeTime = %g, want exactly 2x clean %g", got, clean.ComputeTime)
	}
	if got, want := slow.SyncTime, 3*clean.SyncTime; math.Abs(got-want) > 1e-12*want {
		t.Errorf("brownout SyncTime = %g, want exactly 3x clean %g", got, clean.SyncTime)
	}
	// The controller path: the inflation arrives through ordinary epoch
	// observations — the trace records the inflated components.
	if slow.Trace[0].ComputeTime <= clean.Trace[0].ComputeTime {
		t.Error("per-epoch trace does not show the inflation")
	}
}

func TestBrownoutExhaustionDegradesGracefully(t *testing.T) {
	// Error rate 1: every checkpoint attempt fails, the default policy's
	// four attempts back off and then the job degrades — explicitly, with
	// the flag set, not with a panic.
	sched := fault.MustNew(fault.BrownoutWindow(0, 1e9, 1, 1))
	res, _ := faultJob(t, sched, 4, 3, nil)
	if !res.Degraded {
		t.Fatal("retry exhaustion did not set Degraded")
	}
	if want := fault.DefaultRetryPolicy().MaxAttempts; res.StorageRetries != want {
		t.Errorf("StorageRetries = %d, want %d (one exhausted op, then checkpoint-less)",
			res.StorageRetries, want)
	}
	if res.Epochs != 3 {
		t.Errorf("degraded job stopped early: %d epochs", res.Epochs)
	}
	// Backoff time landed on the job clock as overhead.
	clean, _ := faultJob(t, nil, 4, 3, nil)
	if res.OverheadTime <= clean.OverheadTime {
		t.Error("retry backoff not accounted as overhead")
	}
}

func TestBrownoutRetrySucceedsBelowExhaustion(t *testing.T) {
	// Error rate 0.5: the accumulator gate fails every second attempt, so
	// each checkpoint needs one retry but never exhausts the policy.
	sched := fault.MustNew(fault.BrownoutWindow(0, 1e9, 1, 0.5))
	res, _ := faultJob(t, sched, 4, 4, nil)
	if res.Degraded {
		t.Fatal("rate-0.5 brownout should not exhaust the retry policy")
	}
	if res.StorageRetries == 0 {
		t.Error("no retries recorded under a failing brownout")
	}
}

func TestKillDuringDelayedRestartOverlap(t *testing.T) {
	next := cost.Allocation{N: 4, MemMB: 1769, Storage: storage.S3}
	ctrl := func(epoch int, loss float64, elapsed, spent float64) Decision {
		if epoch == 1 {
			return Decision{NewAlloc: &next, Delayed: true}
		}
		return Decision{}
	}
	// Probe run: learn when epoch 2 (the overlap window: old group runs,
	// new group starts up) begins and ends on this seed.
	w := workload.MobileNet()
	probe := NewRunner(4)
	probe.Noise = NoNoise()
	job, err := probe.StartJob(Config{
		Workload: w, Engine: w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 4),
		Alloc:      cost.Allocation{N: 10, MemMB: 1769, Storage: storage.S3},
		MaxEpochs:  4,
		Controller: ctrl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Step(); err != nil {
		t.Fatal(err)
	}
	if job.st.pendingSwitch == nil {
		t.Fatal("probe: delayed switch not pending after epoch 1")
	}
	overlapStart := job.st.clock
	job.Finish()

	// Real run: kill two sandboxes shortly after the overlap window opens,
	// while both the old group and the pending delayed group are in flight.
	sched := fault.MustNew(fault.KillAt(overlapStart+0.05, 2))
	res, r := faultJob(t, sched, 4, 4, ctrl)
	if res.Failures != 1 {
		t.Fatalf("Failures = %d, want 1", res.Failures)
	}
	if res.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1 (the delayed takeover happened)", res.Restarts)
	}
	// Group bookkeeping survived the kill-during-overlap: every admitted
	// sandbox was either killed+replaced or released, no panic, none leaked.
	if n := r.Compute().InFlight(); n != 0 {
		t.Errorf("in flight = %d after Finish, want 0", n)
	}
}

func TestFaultScheduleRunsAreDeterministic(t *testing.T) {
	sched := func() *fault.Schedule {
		return fault.MustNew(
			fault.KillAt(40, 1),
			fault.ReclaimAt(10, 2),
			fault.StragglerWindow(20, 90, 1.5),
			fault.BrownoutWindow(50, 120, 2, 0.25),
			fault.ColdSpikeWindow(0, 200, 3),
		)
	}
	a, _ := faultJob(t, sched(), 9, 6, nil)
	b, _ := faultJob(t, sched(), 9, 6, nil)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same schedule + seed diverged:\n%+v\n%+v", a, b)
	}
	if a.Failures == 0 {
		t.Error("schedule injected no failures")
	}
}
