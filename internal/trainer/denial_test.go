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
// with errors.Is (RunShared queues on it). A job that ends in the error
// holds nothing on the account afterwards, and finishing it releases
// nothing a second time.
func TestConcurrencyDenialKeepsItsDetail(t *testing.T) {
	w := workload.MobileNet()
	limit := faas.MaxConcurrency
	over := cost.Allocation{N: limit + 1, MemMB: 1769, Storage: storage.S3}
	cfg := func(alloc cost.Allocation, ctrl Controller) Config {
		return Config{
			Workload: w, Engine: w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 4),
			Alloc: alloc, MaxEpochs: 3, Controller: ctrl,
		}
	}
	// held checks that the failed job's runner has nothing in flight.
	held := func(t *testing.T, r *Runner) {
		t.Helper()
		if n := r.Compute().InFlight(); n != 0 {
			t.Errorf("the failed job left %d functions in flight, want 0", n)
		}
	}
	job := func(t *testing.T, alloc cost.Allocation, ctrl Controller) error {
		r := NewRunner(4)
		r.Noise = NoNoise()
		err := r.Run(cfg(alloc, ctrl), new(Result))
		held(t, r)
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
		err  func(t *testing.T) error
		want string
	}{
		{"initial group", func(t *testing.T) error { return job(t, over, nil) }, detail(0)},
		{"immediate switch", func(t *testing.T) error { return job(t, ten, switchTo(false)) }, detail(0)},
		{"delayed switch", func(t *testing.T) error { return job(t, ten, switchTo(true)) }, detail(ten.N)},
		// A stepped job (RunShared's path) that finish is called on after
		// the error.
		{"delayed switch, stepped", func(t *testing.T) error {
			r := NewRunner(4)
			j := new(Job)
			if err := j.start(r, cfg(ten, switchTo(true)), new(Result)); err != nil {
				t.Fatal(err)
			}
			err := j.step()
			j.finish()
			held(t, r)
			return err
		}, detail(ten.N)},
		// Through Run a kill frees exactly what its re-invoke asks for, so
		// the call site is driven directly: nothing in flight to kill, and
		// an over-cap group to bring back.
		{"fault re-invoke", func(*testing.T) error {
			j := &Job{r: NewRunner(4), cfg: Config{Workload: w, Faults: fault.MustNew()}, alloc: over, res: &Result{}}
			return j.killDuringEpoch(10, fault.Event{Kind: fault.KillSandbox, At: 1, Count: over.N})
		}, detail(0)},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := c.err(t)
			if !errors.Is(err, faas.ErrConcurrencyExceeded) {
				t.Fatalf("err = %v, want one that Is faas.ErrConcurrencyExceeded", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %q, want it to name %q", err, c.want)
			}
		})
	}
}
