package trainer

import (
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/storage"
	"repro/internal/workload"
)

func mnAlloc() cost.Allocation {
	return cost.Allocation{N: 10, MemMB: 1769, Storage: storage.S3}
}

func newMNJob(r *Runner, alloc cost.Allocation, target float64, max int) Config {
	w := workload.MobileNet()
	return Config{
		Workload:   w,
		Engine:     w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 7),
		Alloc:      alloc,
		TargetLoss: target,
		MaxEpochs:  max,
	}
}

func TestRunConvergesToTarget(t *testing.T) {
	r := NewRunner(1)
	res, err := r.Run(newMNJob(r, mnAlloc(), 0.2, 300))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge; final loss %g after %d epochs", res.FinalLoss, res.Epochs)
	}
	if res.FinalLoss > 0.2 {
		t.Errorf("final loss %g above target", res.FinalLoss)
	}
	if res.JCT <= 0 || res.TotalCost <= 0 {
		t.Errorf("JCT=%g cost=%g must be positive", res.JCT, res.TotalCost)
	}
	if res.Epochs != len(res.Trace) {
		t.Errorf("Epochs=%d but trace has %d entries", res.Epochs, len(res.Trace))
	}
}

func TestResultAccounting(t *testing.T) {
	r := NewRunner(2)
	res, err := r.Run(newMNJob(r, mnAlloc(), 0.2, 300))
	if err != nil {
		t.Fatal(err)
	}
	// JCT decomposes into compute + sync + overhead.
	sum := res.ComputeTime + res.SyncTime + res.OverheadTime
	if math.Abs(sum-res.JCT) > 1e-6*res.JCT {
		t.Errorf("JCT %g != compute %g + sync %g + overhead %g",
			res.JCT, res.ComputeTime, res.SyncTime, res.OverheadTime)
	}
	// Cost decomposes into functions + storage + invocations.
	csum := res.FunctionCost + res.StorageCost + res.InvokeCost
	if math.Abs(csum-res.TotalCost) > 1e-9*res.TotalCost {
		t.Errorf("TotalCost %g != %g", res.TotalCost, csum)
	}
	// Trace epoch times sum to JCT minus overhead.
	var traceT float64
	for _, e := range res.Trace {
		traceT += e.Time
	}
	if math.Abs(traceT-(res.ComputeTime+res.SyncTime)) > 1e-6*traceT {
		t.Errorf("trace time %g != compute+sync %g", traceT, res.ComputeTime+res.SyncTime)
	}
}

func TestPlatformMeterAgreesWithResult(t *testing.T) {
	r := NewRunner(3)
	res, err := r.Run(newMNJob(r, mnAlloc(), 0.2, 300))
	if err != nil {
		t.Fatal(err)
	}
	m := r.Compute().Meter()
	if math.Abs(m.ComputeCost+m.InvokeCost-(res.FunctionCost+res.InvokeCost)) > 1e-9 {
		t.Errorf("platform bill %g != result function bill %g",
			m.ComputeCost+m.InvokeCost, res.FunctionCost+res.InvokeCost)
	}
	if r.Compute().InFlight() != 0 {
		t.Errorf("job left %d functions admitted", r.Compute().InFlight())
	}
}

func TestGroundTruthNearAnalyticWithoutNoise(t *testing.T) {
	r := NewRunner(4)
	r.Noise = NoNoise()
	w := workload.MobileNet()
	a := mnAlloc()
	res, err := r.RunEpochs(w, w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 1), a, 5)
	if err != nil {
		t.Fatal(err)
	}
	am := cost.NewModel(w)
	am.StragglerSigma = 0 // the runner's noise is off too
	wantEpoch := am.EpochTime(a)
	for _, e := range res.Trace {
		if math.Abs(e.Time-wantEpoch) > 1e-9*wantEpoch {
			t.Errorf("noiseless epoch time %g != analytic %g", e.Time, wantEpoch)
		}
	}
	wantCost := am.EpochCost(a)
	if e := res.Trace[2]; math.Abs(e.Cost-wantCost) > 1e-9*wantCost {
		t.Errorf("noiseless epoch cost %g != analytic %g", e.Cost, wantCost)
	}
}

func TestNoiseMakesEpochsVary(t *testing.T) {
	r := NewRunner(5)
	w := workload.MobileNet()
	res, err := r.RunEpochs(w, w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 1), mnAlloc(), 10)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Trace[0].Time
	varies := false
	for _, e := range res.Trace[1:] {
		if e.Time != first {
			varies = true
		}
	}
	if !varies {
		t.Error("noisy epochs should differ in wall time")
	}
}

func TestStragglerPenaltyGrowsWithN(t *testing.T) {
	// With more functions the BSP barrier waits for a worse straggler, so
	// mean epoch compute inflation grows with n.
	w := workload.LRHiggs()
	inflation := func(n int) float64 {
		r := NewRunner(6)
		a := cost.Allocation{N: n, MemMB: 1769, Storage: storage.S3}
		var sum float64
		const epochs = 30
		res, err := r.RunEpochs(w, w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 1), a, epochs)
		if err != nil {
			t.Fatal(err)
		}
		base := w.Dataset.PartitionSizeMB(n) * w.U(1769)
		for _, e := range res.Trace {
			sum += e.ComputeTime / base
		}
		return sum / epochs
	}
	small, large := inflation(5), inflation(100)
	if large <= small {
		t.Errorf("straggler inflation should grow with n: n=5 %g, n=100 %g", small, large)
	}
}

func TestControllerImmediateSwitch(t *testing.T) {
	r := NewRunner(7)
	w := workload.MobileNet()
	next := cost.Allocation{N: 20, MemMB: 2048, Storage: storage.ElastiCache}
	cfg := newMNJob(r, mnAlloc(), 0, 6)
	cfg.Controller = func(epoch int, loss float64, elapsed, spent float64) Decision {
		if epoch == 2 {
			return Decision{NewAlloc: &next}
		}
		return Decision{}
	}
	cfg.Workload = w
	res, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", res.Restarts)
	}
	if res.Trace[1].Alloc != mnAlloc() {
		t.Error("epoch 2 should still run on the old allocation")
	}
	if res.Trace[2].Alloc != next {
		t.Errorf("epoch 3 alloc = %v, want %v", res.Trace[2].Alloc, next)
	}
}

func TestDelayedRestartTakesOneMoreEpochOnOldAlloc(t *testing.T) {
	r := NewRunner(8)
	next := cost.Allocation{N: 20, MemMB: 2048, Storage: storage.S3}
	cfg := newMNJob(r, mnAlloc(), 0, 6)
	cfg.Controller = func(epoch int, loss float64, elapsed, spent float64) Decision {
		if epoch == 2 {
			return Decision{NewAlloc: &next, Delayed: true}
		}
		return Decision{}
	}
	res, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", res.Restarts)
	}
	// Epoch 3 still runs on the old allocation (overlap window), epoch 4 on
	// the new one.
	if res.Trace[2].Alloc != mnAlloc() {
		t.Errorf("epoch 3 alloc = %v, want old %v", res.Trace[2].Alloc, mnAlloc())
	}
	if res.Trace[3].Alloc != next {
		t.Errorf("epoch 4 alloc = %v, want new %v", res.Trace[3].Alloc, next)
	}
}

func TestDelayedRestartCheaperThanImmediate(t *testing.T) {
	// The whole point of Fig. 8: delayed restart hides startup+reload
	// behind the running epoch, so JCT overhead is lower.
	run := func(delayed bool) float64 {
		r := NewRunner(9)
		r.Noise = NoNoise()
		next := cost.Allocation{N: 20, MemMB: 2048, Storage: storage.S3}
		cfg := newMNJob(r, mnAlloc(), 0, 8)
		cfg.Controller = func(epoch int, loss float64, elapsed, spent float64) Decision {
			if epoch == 3 {
				return Decision{NewAlloc: &next, Delayed: delayed}
			}
			return Decision{}
		}
		res, err := r.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.OverheadTime
	}
	immediate, delayed := run(false), run(true)
	if delayed >= immediate {
		t.Errorf("delayed restart overhead %g should beat immediate %g", delayed, immediate)
	}
}

func TestPlanningSecondsCountedAsOverhead(t *testing.T) {
	r := NewRunner(10)
	cfg := newMNJob(r, mnAlloc(), 0, 3)
	cfg.Controller = func(epoch int, loss float64, elapsed, spent float64) Decision {
		return Decision{PlanningSeconds: 2.5}
	}
	res, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PlanningTime-7.5) > 1e-9 { // 3 epochs x 2.5s (after each)
		t.Errorf("PlanningTime = %g, want 7.5", res.PlanningTime)
	}
	if res.OverheadTime < 7.5 {
		t.Errorf("OverheadTime %g should include planning", res.OverheadTime)
	}
}

func TestControllerStop(t *testing.T) {
	r := NewRunner(11)
	cfg := newMNJob(r, mnAlloc(), 0, 100)
	cfg.Controller = func(epoch int, loss float64, elapsed, spent float64) Decision {
		if epoch >= 4 {
			return Decision{Stop: true}
		}
		return Decision{}
	}
	res, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 4 || res.Converged {
		t.Errorf("Epochs = %d converged=%v, want 4 and not converged", res.Epochs, res.Converged)
	}
}

func TestCheckpointRestoredOnRestart(t *testing.T) {
	// A real engine's weights must survive an immediate restart via the
	// storage checkpoint: loss continues from where it was, it does not
	// jump back to the initial loss.
	r := NewRunner(12)
	w := workload.LRHiggs()
	eng, err := w.NewRealEngine(workload.Hyperparams{LR: w.DefaultLR}, 1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	next := cost.Allocation{N: 20, MemMB: 1024, Storage: storage.S3}
	var lossBefore float64
	cfg := Config{
		Workload: w, Engine: eng,
		Alloc:     cost.Allocation{N: 10, MemMB: 1024, Storage: storage.S3},
		MaxEpochs: 8,
		Controller: func(epoch int, loss float64, elapsed, spent float64) Decision {
			if epoch == 4 {
				lossBefore = loss
				return Decision{NewAlloc: &next}
			}
			return Decision{}
		},
	}
	res, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lossAfter := res.Trace[4].Loss
	if lossAfter > lossBefore*1.2 {
		t.Errorf("loss jumped from %g to %g after restart; checkpoint lost", lossBefore, lossAfter)
	}
	if r.Backend.Store().Stats().Puts == 0 {
		t.Error("no checkpoints were written through storage")
	}
}

func TestRunRejectsNilInputs(t *testing.T) {
	r := NewRunner(13)
	if _, err := r.Run(Config{}); err == nil {
		t.Error("nil workload/engine should error")
	}
}

func TestRunRejectsInfeasibleInvoke(t *testing.T) {
	r := NewRunner(14)
	w := workload.MobileNet()
	cfg := Config{
		Workload: w,
		Engine:   w.NewCurveEngine(workload.Hyperparams{}, 1),
		Alloc:    cost.Allocation{N: 10, MemMB: 64, Storage: storage.S3},
	}
	if _, err := r.Run(cfg); err == nil {
		t.Error("invalid memory should fail at invoke")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (float64, float64) {
		r := NewRunner(42)
		res, err := r.Run(newMNJob(r, mnAlloc(), 0.2, 300))
		if err != nil {
			t.Fatal(err)
		}
		return res.JCT, res.TotalCost
	}
	j1, c1 := run()
	j2, c2 := run()
	if j1 != j2 || c1 != c2 {
		t.Errorf("non-deterministic: (%g, %g) vs (%g, %g)", j1, c1, j2, c2)
	}
}

func TestVMPSJobFasterButPricierThanS3ForBigModel(t *testing.T) {
	w := workload.BERT()
	run := func(k storage.Kind) *Result {
		r := NewRunner(15)
		a := cost.Allocation{N: 10, MemMB: 4096, Storage: k}
		res, err := r.RunEpochs(w, w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 1), a, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	s3, vm := run(storage.S3), run(storage.VMPS)
	if vm.SyncTime >= s3.SyncTime {
		t.Errorf("VM-PS sync %g should beat S3 %g for a 340MB model", vm.SyncTime, s3.SyncTime)
	}
}
