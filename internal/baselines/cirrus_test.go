package baselines_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/trainer"
	"repro/internal/workload"
)

// Modified Cirrus (§IV-C) is core's Algorithm 2 session pinned to one
// storage service with immediate restarts, as the package doc defines it.

func TestModifiedCirrusPinnedToVMPS(t *testing.T) { checkCirrusPinned(t, storage.VMPS) }

func TestModifiedCirrusPinnedS3(t *testing.T) { checkCirrusPinned(t, storage.S3) }

// checkCirrusPinned runs modified Cirrus on kind: its initial allocation and
// every epoch Train runs stay on that service, and every switch restarts
// immediately. The $12 budget binds on S3 and VM-PS, so the session does
// switch.
func checkCirrusPinned(t *testing.T, kind storage.Kind) {
	t.Helper()
	f := core.New(workload.MobileNet())
	opt := core.Options{Budget: 12, Seed: 7, PinStorage: &kind, DisableDelayedRestart: true}
	_, alloc, _, err := f.Session(opt)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Storage != kind {
		t.Fatalf("initial storage = %v, want %v", alloc.Storage, kind)
	}
	r := trainer.NewRunner(6)
	o := obs.New()
	r.SetObserver(o)
	out, err := f.Train(opt, r)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Result.Converged {
		t.Fatal("modified Cirrus did not converge")
	}
	for _, e := range out.Result.Trace {
		if e.Alloc.Storage != kind {
			t.Fatalf("epoch %d ran on %v, want %v", e.Epoch, e.Alloc.Storage, kind)
		}
	}
	if o.Stats().Counter("trainer.switches.immediate") == 0 {
		t.Error("no switch under a binding budget")
	}
	if got := o.Stats().Counter("trainer.switches.delayed"); got != 0 {
		t.Errorf("%g delayed switches, want 0", got)
	}
	if o.Stats().Counter("scheduler.decisions") == 0 {
		t.Error("observed runner recorded no scheduler decisions")
	}
}
