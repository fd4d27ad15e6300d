package trainer

import (
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pricing"
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
	res := new(Result)
	if err := r.Run(newMNJob(r, mnAlloc(), 0.2, 300), res); err != nil {
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
	res := new(Result)
	if err := r.Run(newMNJob(r, mnAlloc(), 0.2, 300), res); err != nil {
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

// TestPlatformMeterAgreesWithResult: on every billing path the Result's
// function and invocation bills are what the platform meter charged.
func TestPlatformMeterAgreesWithResult(t *testing.T) {
	switchAt2 := func(next cost.Allocation, delayed bool) Controller {
		return func(epoch int, _, _, _ float64) Decision {
			return Decision{Switch: epoch == 2, NewAlloc: next, Delayed: delayed}
		}
	}
	bigger := cost.Allocation{N: 20, MemMB: 2048, Storage: storage.S3}
	crashWindow := fault.MustNew(fault.CrashWindow(0, math.MaxFloat64, 0.02))
	restarted := func(res *Result, _ *obs.Observer) bool { return res.Restarts == 1 }
	failed := func(res *Result, _ *obs.Observer) bool { return res.Failures > 0 }
	// Epochs take ~950 s, so the kill lands inside epoch 1. A warm pool
	// outlives an epoch only between jobs, so the reclaim case first runs a
	// one-epoch job on other sandboxes and reclaims what it left.
	for _, c := range []struct {
		name   string
		faults *fault.Schedule
		ctrl   Controller
		noCkpt bool
		warm   bool                              // a prior job fills the warm pool
		fired  func(*Result, *obs.Observer) bool // the path under test ran
	}{
		{name: "fault-free", fired: func(*Result, *obs.Observer) bool { return true }},
		{name: "immediate switch", ctrl: switchAt2(bigger, false), fired: restarted},
		{name: "delayed switch", ctrl: switchAt2(bigger, true), fired: restarted},
		{name: "scheduled kill", faults: fault.MustNew(fault.KillAt(100, 3)), fired: failed},
		{name: "warm reclaim", faults: fault.MustNew(fault.ReclaimAt(0, 5)), warm: true,
			fired: func(_ *Result, o *obs.Observer) bool { return o.Stats().Counter("faas.reclaimed") == 5 }},
		{name: "crash window", faults: crashWindow, fired: failed},
		{name: "crash window, no checkpoint", faults: crashWindow, noCkpt: true, fired: failed},
		{name: "brownout", faults: fault.MustNew(fault.BrownoutWindow(0, 1e9, 2, 0.5)), ctrl: switchAt2(bigger, false),
			fired: func(res *Result, _ *obs.Observer) bool { return res.StorageRetries > 0 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := NewRunner(3)
			o := obs.New()
			r.SetObserver(o)
			if c.warm {
				if err := r.Run(newMNJob(r, bigger, 0, 1), new(Result)); err != nil {
					t.Fatal(err)
				}
			}
			before := r.Compute().Meter()
			cfg := newMNJob(r, mnAlloc(), 0, 8)
			cfg.Faults, cfg.Controller, cfg.DisableCheckpoint = c.faults, c.ctrl, c.noCkpt
			res := new(Result)
			if err := r.Run(cfg, res); err != nil {
				t.Fatal(err)
			}
			if !c.fired(res, o) {
				t.Fatalf("the path under test did not run: %+v", *res)
			}
			m := r.Compute().Meter()
			if metered, fn := m.ComputeCost-before.ComputeCost, res.FunctionCost; math.Abs(fn-metered) > 1e-9*metered {
				t.Errorf("result function bill %g != metered compute %g", fn, metered)
			}
			if metered, inv := m.InvokeCost-before.InvokeCost, res.InvokeCost; math.Abs(inv-metered) > 1e-9*metered {
				t.Errorf("result invocation bill %g != metered %g", inv, metered)
			}
			if r.Compute().InFlight() != 0 {
				t.Errorf("job left %d functions admitted", r.Compute().InFlight())
			}
		})
	}
}

func TestGroundTruthNearAnalyticWithoutNoise(t *testing.T) {
	r := NewRunner(4)
	r.Noise = NoNoise()
	w := workload.MobileNet()
	a := mnAlloc()
	res := new(Result)
	if err := r.Run(Config{Workload: w, Engine: w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 1), Alloc: a, MaxEpochs: 5}, res); err != nil {
		t.Fatal(err)
	}
	// The runner's noise is off, so it matches Eq. 2 without the straggler
	// penalty the model assumes; on S3 the storage bill does not depend on
	// the epoch time.
	am := cost.NewModel(w)
	wantEpoch := w.Dataset.PartitionSizeMB(a.N)*w.U(a.MemMB) + am.SyncTime(a)
	for _, e := range res.Trace {
		if math.Abs(e.Time-wantEpoch) > 1e-9*wantEpoch {
			t.Errorf("noiseless epoch time %g != analytic %g", e.Time, wantEpoch)
		}
	}
	wantCost := float64(a.N)*pricing.ComputeOnlyCost(wantEpoch, float64(a.MemMB)) + am.StorageEpochCost(a)
	if e := res.Trace[2]; math.Abs(e.Cost-wantCost) > 1e-9*wantCost {
		t.Errorf("noiseless epoch cost %g != analytic %g", e.Cost, wantCost)
	}
}

func TestNoiseMakesEpochsVary(t *testing.T) {
	r := NewRunner(5)
	w := workload.MobileNet()
	res := new(Result)
	if err := r.Run(Config{Workload: w, Engine: w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 1), Alloc: mnAlloc(), MaxEpochs: 10}, res); err != nil {
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
		res := new(Result)
		if err := r.Run(Config{Workload: w, Engine: w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 1), Alloc: a, MaxEpochs: epochs}, res); err != nil {
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
			return Decision{Switch: true, NewAlloc: next}
		}
		return Decision{}
	}
	cfg.Workload = w
	res := new(Result)
	if err := r.Run(cfg, res); err != nil {
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
			return Decision{Switch: true, NewAlloc: next, Delayed: true}
		}
		return Decision{}
	}
	res := new(Result)
	if err := r.Run(cfg, res); err != nil {
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
				return Decision{Switch: true, NewAlloc: next, Delayed: delayed}
			}
			return Decision{}
		}
		res := new(Result)
		if err := r.Run(cfg, res); err != nil {
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
	res := new(Result)
	if err := r.Run(cfg, res); err != nil {
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
	res := new(Result)
	if err := r.Run(cfg, res); err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 4 || res.Converged {
		t.Errorf("Epochs = %d converged=%v, want 4 and not converged", res.Epochs, res.Converged)
	}
}

func TestCheckpointRestoredOnRestart(t *testing.T) {
	// A real engine's weights must survive an immediate restart via the
	// job's checkpoint: loss continues from where it was, it does not jump
	// back to the initial loss. The observed runner counts one checkpoint
	// write per epoch and the restart's one read of the whole snapshot.
	r := NewRunner(12)
	o := obs.New()
	r.SetObserver(o)
	w := workload.LRHiggs()
	eng, err := w.NewRealEngine(workload.Hyperparams{LR: w.DefaultLR}, 1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	snapLen := float64(len(eng.AppendSnapshot(nil)))
	next := cost.Allocation{N: 20, MemMB: 1024, Storage: storage.S3}
	var lossBefore float64
	cfg := Config{
		Workload: w, Engine: eng,
		Alloc:     cost.Allocation{N: 10, MemMB: 1024, Storage: storage.S3},
		MaxEpochs: 8,
		Controller: func(epoch int, loss float64, elapsed, spent float64) Decision {
			if epoch == 4 {
				lossBefore = loss
				return Decision{Switch: true, NewAlloc: next}
			}
			return Decision{}
		},
	}
	res := new(Result)
	if err := r.Run(cfg, res); err != nil {
		t.Fatal(err)
	}
	lossAfter := res.Trace[4].Loss
	if lossAfter > lossBefore*1.2 {
		t.Errorf("loss jumped from %g to %g after restart; checkpoint lost", lossBefore, lossAfter)
	}
	st := o.Stats()
	if puts, gets := st.Counter("store.puts"), st.Counter("store.gets"); puts != 8 || gets != 1 {
		t.Errorf("store.puts = %g, store.gets = %g; want one write per epoch and one read at the restart", puts, gets)
	}
	if pf, gf := st.Counter("store.put_floats"), st.Counter("store.get_floats"); pf != 8*snapLen || gf != snapLen {
		t.Errorf("store.put_floats = %g, store.get_floats = %g; want %g and %g", pf, gf, 8*snapLen, snapLen)
	}
}

// A checkpoint belongs to the job that wrote it: a job with checkpoints off
// that restarts on a runner an earlier job checkpointed on must train
// exactly as it does on a fresh runner, before and after its restart.
func TestRestartIgnoresAnotherJobsCheckpoint(t *testing.T) {
	jobB := func(r *Runner) Config {
		cfg := newMNJob(r, mnAlloc(), 0, 6)
		cfg.DisableCheckpoint = true
		cfg.Controller = func(epoch int, _, _, _ float64) Decision {
			if epoch == 1 {
				return Decision{Switch: true, NewAlloc: cost.Allocation{N: 20, MemMB: 2048, Storage: storage.S3}}
			}
			return Decision{}
		}
		return cfg
	}
	shared := NewRunner(5)
	if err := shared.Run(newMNJob(shared, mnAlloc(), 0, 30), new(Result)); err != nil {
		t.Fatal(err)
	}
	got := new(Result)
	if err := shared.Run(jobB(shared), got); err != nil {
		t.Fatal(err)
	}
	fresh := NewRunner(5)
	want := new(Result)
	if err := fresh.Run(jobB(fresh), want); err != nil {
		t.Fatal(err)
	}
	if got.Restarts != 1 || len(got.Trace) != len(want.Trace) {
		t.Fatalf("%d restarts, %d epochs; want 1 restart and %d epochs", got.Restarts, len(got.Trace), len(want.Trace))
	}
	for i, rep := range got.Trace {
		if rep.Epoch != want.Trace[i].Epoch || rep.Loss != want.Trace[i].Loss {
			t.Errorf("epoch %d: loss %g after another job's run, %g on a fresh runner", rep.Epoch, rep.Loss, want.Trace[i].Loss)
		}
	}
}

func TestRunRejectsNilInputs(t *testing.T) {
	r := NewRunner(13)
	if err := r.Run(Config{}, new(Result)); err == nil {
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
	if err := r.Run(cfg, new(Result)); err == nil {
		t.Error("invalid memory should fail at invoke")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (float64, float64) {
		r := NewRunner(42)
		res := new(Result)
		if err := r.Run(newMNJob(r, mnAlloc(), 0.2, 300), res); err != nil {
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
		res := new(Result)
		if err := r.Run(Config{Workload: w, Engine: w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 1), Alloc: a, MaxEpochs: 3}, res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	s3, vm := run(storage.S3), run(storage.VMPS)
	if vm.SyncTime >= s3.SyncTime {
		t.Errorf("VM-PS sync %g should beat S3 %g for a 340MB model", vm.SyncTime, s3.SyncTime)
	}
}
