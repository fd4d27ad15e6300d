package trainer

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestProvisionedServiceReleasedAtJobEnd is the regression test for the
// storage-service lifecycle: a job that provisions an hourly-billed service
// (ElastiCache, VM-PS) must release its lease when it finishes, so the
// provisioned-seconds meter stops accruing.
func TestProvisionedServiceReleasedAtJobEnd(t *testing.T) {
	r := NewRunner(4)
	r.Noise = NoNoise()
	w := workload.MobileNet()
	a := cost.Allocation{N: 10, MemMB: 1769, Storage: storage.ElastiCache}

	job, err := r.StartJob(Config{
		Workload: w,
		Engine:   w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 1),
		Alloc:    a, MaxEpochs: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ServiceLeases(storage.ElastiCache); got != 1 {
		t.Fatalf("running job holds %d leases, want 1", got)
	}
	if got := r.ProvisionedSeconds(storage.ElastiCache); got != 0 {
		t.Fatalf("accrued %v provisioned seconds before the job finished", got)
	}
	for !job.Done() {
		if err := job.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res := job.Finish()

	if got := r.ServiceLeases(storage.ElastiCache); got != 0 {
		t.Fatalf("finished job still holds %d leases", got)
	}
	accrued := r.ProvisionedSeconds(storage.ElastiCache)
	if accrued <= 0 || accrued > res.JCT {
		t.Fatalf("accrued %v provisioned seconds, want in (0, %v]", accrued, res.JCT)
	}
	if cost := r.ProvisionedCost(storage.ElastiCache); cost <= 0 {
		t.Fatalf("accrued provisioned cost %v, want > 0", cost)
	}

	// The meter must not accrue while no job holds the service: a second,
	// S3-only job leaves the ElastiCache accrual untouched.
	res2, err := r.RunEpochs(w, w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 2),
		cost.Allocation{N: 10, MemMB: 1769, Storage: storage.S3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Epochs != 5 {
		t.Fatalf("second job ran %d epochs, want 5", res2.Epochs)
	}
	if got := r.ProvisionedSeconds(storage.ElastiCache); got != accrued {
		t.Fatalf("meter accrued while released: %v -> %v", accrued, got)
	}
	if got := r.ServiceLeases(storage.S3); got != 0 {
		t.Fatalf("auto-scaling S3 should never hold a lease, got %d", got)
	}

	// Re-provisioning later is free in time (the paper provisions once per
	// workflow) but re-opens the lease and resumes the meter.
	res3, err := r.RunEpochs(w, w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 3), a, 5)
	if err != nil {
		t.Fatal(err)
	}
	after := r.ProvisionedSeconds(storage.ElastiCache)
	if after <= accrued {
		t.Fatalf("re-held service accrued nothing: %v -> %v", accrued, after)
	}
	if after-accrued > res3.JCT {
		t.Fatalf("second lease accrued %v, more than its job's JCT %v", after-accrued, res3.JCT)
	}
	if got := r.ServiceLeases(storage.ElastiCache); got != 0 {
		t.Fatalf("finished second job still holds %d leases", got)
	}
}

// TestDelayedSwitchTransfersLease covers the delayed-restart path: a job
// that switches onto a provisioned service mid-run opens the lease at the
// switch and still releases it at job end.
func TestDelayedSwitchTransfersLease(t *testing.T) {
	r := NewRunner(9)
	r.Noise = NoNoise()
	w := workload.MobileNet()
	next := cost.Allocation{N: 20, MemMB: 2048, Storage: storage.VMPS}
	switched := false
	res, err := r.Run(Config{
		Workload:  w,
		Engine:    w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 1),
		Alloc:     cost.Allocation{N: 10, MemMB: 1769, Storage: storage.S3},
		MaxEpochs: 6,
		Controller: func(epoch int, loss float64, elapsed, spent float64) Decision {
			if epoch == 2 && !switched {
				switched = true
				return Decision{NewAlloc: &next, Delayed: true}
			}
			return Decision{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", res.Restarts)
	}
	if got := r.ServiceLeases(storage.VMPS); got != 0 {
		t.Fatalf("finished job still holds %d VM-PS leases", got)
	}
	if got := r.ProvisionedSeconds(storage.VMPS); got <= 0 {
		t.Fatalf("VM-PS lease accrued %v seconds, want > 0", got)
	}
}
