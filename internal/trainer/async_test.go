package trainer

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/storage"
	"repro/internal/workload"
)

func asyncJob(alloc cost.Allocation, async bool, seed uint64) (Config, *Runner) {
	w := workload.MobileNet()
	r := NewRunner(seed)
	return Config{
		Workload:   w,
		Engine:     w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, seed),
		Alloc:      alloc,
		TargetLoss: w.TargetLoss,
		MaxEpochs:  2000,
		Async:      async,
	}, r
}

func TestAsyncEpochsFasterButMoreOfThem(t *testing.T) {
	alloc := cost.Allocation{N: 50, MemMB: 1769, Storage: storage.S3}
	cfgB, rB := asyncJob(alloc, false, 21)
	bsp, err := rB.Run(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	cfgA, rA := asyncJob(alloc, true, 21)
	asp, err := rA.Run(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if !bsp.Converged || !asp.Converged {
		t.Fatalf("convergence: bsp=%v asp=%v", bsp.Converged, asp.Converged)
	}
	// Per-epoch wall time must be much lower without the barrier and the
	// serialized sync pattern...
	bspPerEpoch := bsp.Trace[0].Time
	aspPerEpoch := asp.Trace[0].Time
	if aspPerEpoch >= bspPerEpoch {
		t.Errorf("ASP epoch %gs should beat BSP %gs at n=50/S3", aspPerEpoch, bspPerEpoch)
	}
	// ...but staleness costs extra wall epochs for the same progress.
	if asp.Epochs <= bsp.Epochs {
		t.Errorf("ASP should need more wall epochs: asp=%d bsp=%d", asp.Epochs, bsp.Epochs)
	}
}

func TestAsyncEfficiencyMonotone(t *testing.T) {
	if asyncEfficiency(1) != 1 {
		t.Error("single worker has no staleness")
	}
	prev := 1.0
	for _, n := range []int{2, 10, 50, 200} {
		e := asyncEfficiency(n)
		if e >= prev || e <= 0 || e > 1 {
			t.Errorf("asyncEfficiency(%d) = %g, want in (0, %g)", n, e, prev)
		}
		prev = e
	}
}

func TestAsyncAccountingStillBalances(t *testing.T) {
	alloc := cost.Allocation{N: 20, MemMB: 1769, Storage: storage.S3}
	cfg, r := asyncJob(alloc, true, 23)
	res, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.ComputeTime + res.SyncTime + res.OverheadTime
	if diff := sum - res.JCT; diff > 1e-6*res.JCT || diff < -1e-6*res.JCT {
		t.Errorf("JCT %g != components %g", res.JCT, sum)
	}
	csum := res.FunctionCost + res.StorageCost + res.InvokeCost
	if diff := csum - res.TotalCost; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("cost %g != components %g", res.TotalCost, csum)
	}
}

func TestAsyncLossMonotoneProgress(t *testing.T) {
	// The reported loss under ASP must repeat (staleness stalls) but never
	// regress to a value from many epochs before the engine advanced.
	alloc := cost.Allocation{N: 10, MemMB: 1769, Storage: storage.VMPS}
	cfg, r := asyncJob(alloc, true, 29)
	cfg.MaxEpochs = 40
	cfg.TargetLoss = 0 // run the full horizon
	res, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stalls := 0
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Loss == res.Trace[i-1].Loss {
			stalls++
		}
	}
	if stalls == 0 {
		t.Error("ASP at n=10 should stall some wall epochs (efficiency < 1)")
	}
}
