package trainer

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestConcurrencyDenialKeepsItsDetail: the platform refuses with a bare
// sentinel, so each trainer call site that surfaces a denial must add the
// numbers a person needs — in flight, requested, cap — and stay matchable
// with errors.Is (internal/cluster queues on it).
func TestConcurrencyDenialKeepsItsDetail(t *testing.T) {
	w := workload.MobileNet()
	limit := faas.MaxConcurrency
	over := cost.Allocation{N: limit + 1, MemMB: 1769, Storage: storage.S3}
	job := func(alloc cost.Allocation, ctrl Controller) error {
		r := NewRunner(4)
		r.Noise = NoNoise()
		_, err := r.Run(Config{
			Workload: w, Engine: w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 4),
			Alloc: alloc, MaxEpochs: 3, Controller: ctrl,
		})
		return err
	}
	switchTo := func(delayed bool) Controller {
		return func(epoch int, _, _, _ float64) Decision {
			if epoch == 1 {
				return Decision{Switch: true, NewAlloc: over, Delayed: delayed}
			}
			return Decision{}
		}
	}
	ten := cost.Allocation{N: 10, MemMB: 1769, Storage: storage.S3}
	detail := func(inFlight int) string {
		return fmt.Sprintf("%d in flight + %d requested > %d", inFlight, over.N, limit)
	}
	for _, c := range []struct {
		name string
		err  func() error
		want string
	}{
		{"initial group", func() error { return job(over, nil) }, detail(0)},
		{"immediate switch", func() error { return job(ten, switchTo(false)) }, detail(0)},
		{"delayed switch", func() error { return job(ten, switchTo(true)) }, detail(ten.N)},
		// Through Run a kill frees exactly what its re-invoke asks for, so
		// the call site is driven directly: nothing in flight to kill, and
		// an over-cap group to bring back.
		{"fault re-invoke", func() error {
			r := NewRunner(4)
			st := &state{cfg: Config{Workload: w, Faults: fault.MustNew()}, alloc: over, res: &Result{}}
			return r.killDuringEpoch(st, 1, 10, fault.Event{Kind: fault.KillSandbox, At: 1, Count: over.N})
		}, detail(0)},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := c.err()
			if !errors.Is(err, faas.ErrConcurrencyExceeded) {
				t.Fatalf("err = %v, want one that Is faas.ErrConcurrencyExceeded", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %q, want it to name %q", err, c.want)
			}
		})
	}
}
