package trainer

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/storage"
	"repro/internal/workload"
)

func failureJob(rate float64, noCheckpoint bool, seed uint64) (*Result, error) {
	w := workload.MobileNet()
	r := NewRunner(seed)
	r.Noise.FailureRate = rate
	return r.Run(Config{
		Workload:          w,
		Engine:            w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, seed),
		Alloc:             cost.Allocation{N: 10, MemMB: 1769, Storage: storage.S3},
		TargetLoss:        w.TargetLoss,
		MaxEpochs:         400,
		DisableCheckpoint: noCheckpoint,
	})
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
// loop hits the attempt cap, and the synthetic model proceeds as if the
// epoch succeeded. That truncation must be surfaced in the Result (and as a
// trainer.failure_cap stat), not silently dropped — before the fix
// FailureCapped stayed 0 while the job quietly under-reported its failures.
func TestFailureCapIsSurfaced(t *testing.T) {
	w := workload.MobileNet()
	r := NewRunner(11)
	r.Noise.FailureRate = 0.999
	res, err := r.Run(Config{
		Workload:  w,
		Engine:    w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 11),
		Alloc:     cost.Allocation{N: 10, MemMB: 1769, Storage: storage.S3},
		MaxEpochs: 3,
	})
	if err != nil {
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
	r := NewRunner(7)
	w := workload.MobileNet()
	recoverEach := r.Compute().ColdStartEstimate(1769) +
		r.Service(storage.S3).TransferTime(10, w.ParamsMB)
	recoverSec := float64(faulty.Failures) * recoverEach
	wastedSec := faulty.FailureTime - recoverSec
	if wastedSec <= 0 {
		t.Fatalf("wasted seconds %g <= 0; FailureTime %g, recovery %g", wastedSec, faulty.FailureTime, recoverSec)
	}
	perSec := r.Prices.ComputeOnlyCost(1, 1769)
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

// meterComputeCost runs failureJob and returns the backend platform meter's
// compute cost.
func meterComputeCost(t *testing.T, rate float64, seed uint64) float64 {
	t.Helper()
	w := workload.MobileNet()
	r := NewRunner(seed)
	r.Noise.FailureRate = rate
	if _, err := r.Run(Config{
		Workload:   w,
		Engine:     w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, seed),
		Alloc:      cost.Allocation{N: 10, MemMB: 1769, Storage: storage.S3},
		TargetLoss: w.TargetLoss,
		MaxEpochs:  400,
	}); err != nil {
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

func (brokenRestore) Snapshot() []float64     { return []float64{0} }
func (brokenRestore) Restore([]float64) error { return errSnapshotRejected }

// TestFailedInitialRestoreIsAnError: without a checkpoint a crash throws
// the job back to its initial state, and when that restore fails the run
// returns the error — after a synthetic draw (which used to panic) exactly
// as after a scheduled kill.
func TestFailedInitialRestoreIsAnError(t *testing.T) {
	for name, inject := range map[string]func(*Runner, *Config){
		"synthetic draw": func(r *Runner, _ *Config) { r.Noise.FailureRate = 0.5 },
		"scheduled kill": func(_ *Runner, c *Config) { c.Faults = fault.MustNew(fault.KillAt(0, 2)) },
	} {
		w := workload.MobileNet()
		r := NewRunner(3)
		cfg := Config{
			Workload:          w,
			Engine:            brokenRestore{w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 3)},
			Alloc:             cost.Allocation{N: 10, MemMB: 1769, Storage: storage.S3},
			MaxEpochs:         5,
			DisableCheckpoint: true,
		}
		inject(r, &cfg)
		if _, err := r.Run(cfg); !errors.Is(err, errSnapshotRejected) {
			t.Errorf("%s: Run error = %v, want the failed restore", name, err)
		}
	}
}
