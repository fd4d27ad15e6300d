package trainer

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestAccountingBalancesAcrossRandomConfigs: for random feasible
// allocations, storages and epoch counts, the time and cost breakdowns
// always reconcile with the totals and the platform meter.
func TestAccountingBalancesAcrossRandomConfigs(t *testing.T) {
	w := workload.MobileNet()
	am := cost.NewModel(w)
	feasible := am.Enumerate(cost.DefaultGrid())
	if err := quick.Check(func(pi uint8, seedRaw uint16, epochsRaw uint8) bool {
		a := feasible[int(pi)%len(feasible)].Alloc
		epochs := int(epochsRaw%8) + 1
		r := NewRunner(uint64(seedRaw) + 1)
		res, err := r.RunEpochs(w, w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, uint64(seedRaw)), a, epochs)
		if err != nil {
			return false
		}
		timeOK := math.Abs(res.ComputeTime+res.SyncTime+res.OverheadTime-res.JCT) < 1e-6*res.JCT
		costOK := math.Abs(res.FunctionCost+res.StorageCost+res.InvokeCost-res.TotalCost) < 1e-9*(1+res.TotalCost)
		meter := r.Compute().Meter()
		meterOK := math.Abs(meter.ComputeCost+meter.InvokeCost-(res.FunctionCost+res.InvokeCost)) < 1e-9
		return timeOK && costOK && meterOK && res.Epochs == epochs && r.Compute().InFlight() == 0
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestJCTGrowsWithEpochs: a longer run never finishes earlier.
func TestJCTGrowsWithEpochs(t *testing.T) {
	w := workload.LRHiggs()
	a := cost.Allocation{N: 10, MemMB: 1769, Storage: storage.S3}
	run := func(epochs int) float64 {
		r := NewRunner(9)
		res, err := r.RunEpochs(w, w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 9), a, epochs)
		if err != nil {
			t.Fatal(err)
		}
		return res.JCT
	}
	if err := quick.Check(func(aRaw, bRaw uint8) bool {
		lo := int(aRaw%10) + 1
		hi := lo + int(bRaw%10) + 1
		return run(hi) > run(lo)
	}, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestProvisioningPaidOncePerRunner: the second job on the same substrate
// reusing a manually-scaled storage service skips its provisioning delay.
func TestProvisioningPaidOncePerRunner(t *testing.T) {
	w := workload.MobileNet()
	a := cost.Allocation{N: 10, MemMB: 1769, Storage: storage.ElastiCache}
	r := NewRunner(31)
	r.Noise = NoNoise()
	first, err := r.RunEpochs(w, w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 1), a, 1)
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.RunEpochs(w, w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 2), a, 1)
	if err != nil {
		t.Fatal(err)
	}
	delay := r.Service(storage.ElastiCache).ProvisionDelay()
	if first.StartupTime < delay {
		t.Errorf("first job startup %g should include the %gs provisioning", first.StartupTime, delay)
	}
	if second.StartupTime >= delay {
		t.Errorf("second job startup %g should have skipped provisioning", second.StartupTime)
	}
}

// TestStorageSwitchPaysProvisioning: an adjustment onto an unprovisioned
// manual service pays its delay exactly once.
func TestStorageSwitchPaysProvisioning(t *testing.T) {
	w := workload.MobileNet()
	r := NewRunner(37)
	r.Noise = NoNoise()
	next := cost.Allocation{N: 10, MemMB: 1769, Storage: storage.ElastiCache}
	cfg := Config{
		Workload:  w,
		Engine:    w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 3),
		Alloc:     cost.Allocation{N: 10, MemMB: 1769, Storage: storage.S3},
		MaxEpochs: 6,
		Controller: func(epoch int, loss float64, elapsed, spent float64) Decision {
			if epoch == 2 {
				return Decision{NewAlloc: &next}
			}
			return Decision{}
		},
	}
	res, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	delay := r.Service(storage.ElastiCache).ProvisionDelay()
	adjust := res.OverheadTime - res.StartupTime
	if adjust < delay {
		t.Errorf("adjustment overhead %g should cover ElastiCache provisioning %g", adjust, delay)
	}
}

// TestColdStartOnlyFirstGroup: consecutive same-memory jobs reuse warm
// sandboxes, so the second run's startup is far cheaper.
func TestColdStartOnlyFirstGroup(t *testing.T) {
	w := workload.LRHiggs()
	a := cost.Allocation{N: 10, MemMB: 1769, Storage: storage.S3}
	r := NewRunner(41)
	r.Noise = NoNoise()
	first, _ := r.RunEpochs(w, w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 1), a, 1)
	second, _ := r.RunEpochs(w, w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 2), a, 1)
	if second.StartupTime >= first.StartupTime {
		t.Errorf("warm start %g should beat cold start %g", second.StartupTime, first.StartupTime)
	}
}
