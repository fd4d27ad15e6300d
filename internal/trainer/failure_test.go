package trainer

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/pricing"
	"repro/internal/storage"
	"repro/internal/workload"
)

// crashes returns a schedule whose one crash window covers the whole run at
// the given per-function rate, or nil at rate 0 (as abl-faults builds it).
func crashes(rate float64) *fault.Schedule {
	if rate == 0 {
		return nil
	}
	return fault.MustNew(fault.CrashWindow(0, math.MaxFloat64, rate))
}

func failureJob(rate float64, noCheckpoint bool, seed uint64) (*Result, error) {
	w := workload.MobileNet()
	res := new(Result)
	return res, NewRunner(seed).Run(Config{
		Workload:          w,
		Engine:            w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, seed),
		Alloc:             cost.Allocation{N: 10, MemMB: 1769, Storage: storage.S3},
		TargetLoss:        w.TargetLoss,
		MaxEpochs:         400,
		DisableCheckpoint: noCheckpoint,
		Faults:            crashes(rate),
	}, res)
}

// TestCrashWindowReproducesPinnedDraws: the crash window replays, bit for
// bit, what the trainer's former Noise.FailureRate draws produced for the
// same rates, seed and checkpoint settings — the same trainer.failure
// stream, consumed in the same order.
func TestCrashWindowReproducesPinnedDraws(t *testing.T) {
	for _, want := range []struct {
		rate                           float64
		noCheckpoint                   bool
		failures, epochs, capped       int
		jctBits, failureBits, costBits uint64
	}{
		{0.005, false, 2, 31, 0, 0x40de7e34217b11a6, 0x408a3a2f45ffc802, 0x40223ca8cc917a26},
		{0.005, true, 2, 44, 0, 0x40e5867f5170c875, 0x408a3a2f45ffc802, 0x4029c04d81f0d277},
		{0.02, false, 9, 31, 0, 0x40e0d7384331c65d, 0x40b008377c61e54b, 0x40241b8c4bda77dc},
		{0.02, true, 71, 400, 0, 0x411a05c0cb1e625d, 0x40e0d0b694e49f3a, 0x405f18f3c75b0d0d},
	} {
		res, err := failureJob(want.rate, want.noCheckpoint, 5)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failures != want.failures || res.Epochs != want.epochs || res.FailureCapped != want.capped ||
			math.Float64bits(res.JCT) != want.jctBits || math.Float64bits(res.FailureTime) != want.failureBits ||
			math.Float64bits(res.TotalCost) != want.costBits {
			t.Errorf("rate %g, no checkpoint %v: failures %d epochs %d capped %d JCT %#x failure time %#x cost %#x; want %+v",
				want.rate, want.noCheckpoint, res.Failures, res.Epochs, res.FailureCapped,
				math.Float64bits(res.JCT), math.Float64bits(res.FailureTime), math.Float64bits(res.TotalCost), want)
		}
	}
}

func TestNoFailuresWithoutInjection(t *testing.T) {
	res, err := failureJob(0, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 || res.FailureTime != 0 {
		t.Errorf("failures injected without a rate: %d / %g", res.Failures, res.FailureTime)
	}
}

func TestFailuresSlowTheJobButItConverges(t *testing.T) {
	clean, err := failureJob(0, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := failureJob(0.01, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !faulty.Converged {
		t.Fatalf("checkpointed job should survive failures (loss %g)", faulty.FinalLoss)
	}
	if faulty.Failures == 0 {
		t.Fatal("1% per-function failure rate at n=10 should produce failures")
	}
	if faulty.JCT <= clean.JCT {
		t.Errorf("failures should inflate JCT: %g vs clean %g", faulty.JCT, clean.JCT)
	}
	// Checkpointing bounds the damage: the same number of engine epochs.
	if faulty.Epochs != clean.Epochs {
		t.Errorf("checkpointed epochs %d != clean %d", faulty.Epochs, clean.Epochs)
	}
	if faulty.FailureTime <= 0 {
		t.Error("failure time not accounted")
	}
}

func TestFailureAccountingBalances(t *testing.T) {
	res, err := failureJob(0.02, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.ComputeTime + res.SyncTime + res.OverheadTime
	if diff := sum - res.JCT; diff > 1e-6*res.JCT || diff < -1e-6*res.JCT {
		t.Errorf("JCT %g != components %g", res.JCT, sum)
	}
	if res.FailureTime > res.OverheadTime {
		t.Error("failure time exceeds total overhead")
	}
}

func TestCheckpointingBeatsNoCheckpointUnderFailures(t *testing.T) {
	// The point of checkpointing through storage: with per-epoch
	// checkpoints a crash retries one epoch; without them it loses all
	// progress, so the job needs far more wall epochs (or never finishes).
	with, err := failureJob(0.008, false, 5)
	if err != nil {
		t.Fatal(err)
	}
	without, err := failureJob(0.008, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !with.Converged {
		t.Fatal("checkpointed run should converge")
	}
	if without.Converged && without.Epochs <= with.Epochs {
		t.Errorf("no-checkpoint run converged in %d epochs <= checkpointed %d; restarts had no cost",
			without.Epochs, with.Epochs)
	}
}

// TestFailureCapIsSurfaced: at a failure rate near 1 every epoch's retry
// loop hits the attempt cap, and the crash-window draws proceed as if the
// epoch succeeded. That truncation must be surfaced in the Result (and as a
// trainer.failure_cap stat), not silently dropped — before the fix
// FailureCapped stayed 0 while the job quietly under-reported its failures.
func TestFailureCapIsSurfaced(t *testing.T) {
	w := workload.MobileNet()
	res := new(Result)
	if err := NewRunner(11).Run(Config{
		Workload:  w,
		Engine:    w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 11),
		Alloc:     cost.Allocation{N: 10, MemMB: 1769, Storage: storage.S3},
		MaxEpochs: 3,
		Faults:    crashes(0.999),
	}, res); err != nil {
		t.Fatal(err)
	}
	// groupP = 1 - (1-0.999)^10 ~ 1: every draw fails, so every epoch's
	// loop runs all its attempts and gives up.
	if res.Failures == 0 {
		t.Fatal("no failures at rate 0.999")
	}
	if res.FailureCapped != res.Epochs {
		t.Errorf("FailureCapped = %d, want one truncation per epoch (%d)", res.FailureCapped, res.Epochs)
	}
}

// TestFailureCapNotHitAtEvaluationRates: the paper's evaluation rates
// (<= 0.02) never exhaust the attempt cap, so surfacing the truncation
// changes nothing on the default path.
func TestFailureCapNotHitAtEvaluationRates(t *testing.T) {
	res, err := failureJob(0.02, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailureCapped != 0 {
		t.Errorf("FailureCapped = %d at rate 0.02, want 0", res.FailureCapped)
	}
}

// TestRecoveryComputeIsBilled: a crashed epoch attempt costs the group the
// wasted fraction AND costs the restarted sandbox its recovery run (cold
// start + checkpoint re-pull). Before the fix only the wasted fraction was
// billed: the recovery seconds sat in the job clock and FailureTime but
// never reached BillCompute or the Result's cost, so failure-heavy
// configurations looked cheaper than they were.
func TestRecoveryComputeIsBilled(t *testing.T) {
	clean, err := failureJob(0, false, 7)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := failureJob(0.02, false, 7)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Failures == 0 {
		t.Skip("no failures drawn at this seed")
	}
	if faulty.Epochs != clean.Epochs {
		t.Fatalf("epochs diverged (%d vs %d); cost delta not attributable to failures", faulty.Epochs, clean.Epochs)
	}
	// Each failure's recovery time is the deterministic cold start plus the
	// checkpoint re-pull at group concurrency; the wasted fractions are the
	// remainder of FailureTime. Both cost out linearly (all durations are
	// far above the 1 ms billing floor).
	w := workload.MobileNet()
	recoverEach := faas.ColdStartEstimate(1769) +
		storage.New(storage.S3).TransferTime(10, w.ParamsMB)
	recoverSec := float64(faulty.Failures) * recoverEach
	wastedSec := faulty.FailureTime - recoverSec
	if wastedSec <= 0 {
		t.Fatalf("wasted seconds %g <= 0; FailureTime %g, recovery %g", wastedSec, faulty.FailureTime, recoverSec)
	}
	perSec := pricing.ComputeOnlyCost(1, 1769)
	want := (10*wastedSec + recoverSec) * perSec
	got := faulty.TotalCost - clean.TotalCost
	if diff := math.Abs(got - want); diff > 1e-9*want {
		t.Errorf("failure billing = %g, want wasted+recovery %g (wasted-only would be %g)",
			got, want, 10*wastedSec*perSec)
	}
	// The platform meter must agree: the recovery compute is real platform
	// usage, not just a Result-side adjustment.
	mClean := meterComputeCost(t, 0, 7)
	mFaulty := meterComputeCost(t, 0.02, 7)
	if diff := math.Abs((mFaulty - mClean) - want); diff > 1e-9*want {
		t.Errorf("meter failure billing = %g, want %g", mFaulty-mClean, want)
	}
}

// meterComputeCost runs failureJob and returns the runner's platform meter's
// compute cost.
func meterComputeCost(t *testing.T, rate float64, seed uint64) float64 {
	t.Helper()
	w := workload.MobileNet()
	r := NewRunner(seed)
	if err := r.Run(Config{
		Workload:   w,
		Engine:     w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, seed),
		Alloc:      cost.Allocation{N: 10, MemMB: 1769, Storage: storage.S3},
		TargetLoss: w.TargetLoss,
		MaxEpochs:  400,
		Faults:     crashes(rate),
	}, new(Result)); err != nil {
		t.Fatal(err)
	}
	m := r.Compute().Meter()
	return m.ComputeCost
}

func TestFailedAttemptsAreBilled(t *testing.T) {
	clean, err := failureJob(0, false, 7)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := failureJob(0.02, false, 7)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Failures == 0 {
		t.Skip("no failures drawn at this seed")
	}
	// Same engine epochs, strictly more bill: the platform charges for
	// crashed attempts too.
	if faulty.TotalCost <= clean.TotalCost {
		t.Errorf("faulty cost %g should exceed clean %g", faulty.TotalCost, clean.TotalCost)
	}
}

// brokenRestore is an engine whose snapshots never restore.
type brokenRestore struct{ workload.Engine }

var errSnapshotRejected = errors.New("snapshot rejected")

func (brokenRestore) AppendSnapshot(dst []float64) []float64 { return append(dst, 0) }
func (brokenRestore) Restore([]float64) error                { return errSnapshotRejected }

// TestFailedInitialRestoreIsAnError: without a checkpoint a crash throws
// the job back to its initial state, and when that restore fails the run
// returns the error — after a crash-window draw (which used to panic)
// exactly as after a scheduled kill.
func TestFailedInitialRestoreIsAnError(t *testing.T) {
	for name, faults := range map[string]*fault.Schedule{
		"crash window":   crashes(0.5),
		"scheduled kill": fault.MustNew(fault.KillAt(0, 2)),
	} {
		w := workload.MobileNet()
		cfg := Config{
			Workload:          w,
			Engine:            brokenRestore{w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 3)},
			Alloc:             cost.Allocation{N: 10, MemMB: 1769, Storage: storage.S3},
			MaxEpochs:         5,
			DisableCheckpoint: true,
			Faults:            faults,
		}
		if err := NewRunner(3).Run(cfg, new(Result)); !errors.Is(err, errSnapshotRejected) {
			t.Errorf("%s: Run error = %v, want the failed restore", name, err)
		}
	}
}

// Without checkpoints a crash rewinds a real engine to the epoch it had when
// the job started: on LR-Higgs with two epochs run before the job, a kill in
// the job's fourth epoch sends the engine back to epoch 2, and the job's
// fourth to sixth epochs read the trajectory's epochs 3 to 5.
func TestCrashWithoutCheckpointRewindsRealEngine(t *testing.T) {
	w := workload.LRHiggs()
	engine := func() workload.Engine {
		eng, err := w.NewRealEngine(workload.Hyperparams{LR: w.DefaultLR}, 400, 17)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	run := func(faults *fault.Schedule) (*Result, workload.Engine, float64) {
		eng := engine()
		eng.NextEpoch()
		eng.NextEpoch()
		var third float64
		res := new(Result)
		err := NewRunner(17).Run(Config{
			Workload:          w,
			Engine:            eng,
			Alloc:             cost.Allocation{N: 10, MemMB: 1024, Storage: storage.S3},
			MaxEpochs:         6,
			DisableCheckpoint: true,
			Faults:            faults,
			Controller: func(epoch int, _, elapsed, _ float64) Decision {
				if epoch == 3 {
					third = elapsed
				}
				return Decision{}
			},
		}, res)
		if err != nil {
			t.Fatal(err)
		}
		return res, eng, third
	}
	_, _, third := run(nil)
	res, eng, _ := run(fault.MustNew(fault.KillAt(third+1, 2)))
	if res.Failures != 1 {
		t.Fatalf("%d failures, want the one scheduled kill", res.Failures)
	}
	if got := eng.EpochsRun(); got != 5 {
		t.Errorf("engine at epoch %d after the run, want 5 (rewound to 2, then 3 more)", got)
	}
	ref, want := engine(), make([]float64, 6) // want[e]: the trajectory's loss after epoch e
	for e := 1; e < len(want); e++ {
		want[e] = ref.NextEpoch()
	}
	for job := 4; job <= 6; job++ {
		if got := res.Trace[job-1].Loss; got != want[job-1] {
			t.Errorf("job epoch %d: loss %g, want the trajectory's epoch %d %g", job, got, job-1, want[job-1])
		}
	}
}
