package faas

import (
	"errors"
	"testing"

	"repro/internal/pricing"
	"repro/internal/sim"
)

func newTestPlatform(seed uint64) *Platform {
	s := sim.New(seed)
	return New(s, DefaultLimits(), DefaultStartup(), pricing.Default())
}

// TestInvoke1MatchesInvokeGroup pins Invoke1's contract: on twin platforms
// driven identically, Invoke1 produces the same start (cold/warm, start
// delay), the same meter and the same admission state as
// InvokeGroup(1, ...), through a warm-reuse cycle.
func TestInvoke1MatchesInvokeGroup(t *testing.T) {
	a, b := newTestPlatform(5), newTestPlatform(5)
	for round := 0; round < 20; round++ {
		memMB := 512 << (round % 3)
		g, errA := a.InvokeGroup(1, memMB)
		inv, errB := b.Invoke1(memMB)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("round %d: error divergence: group=%v single=%v", round, errA, errB)
		}
		if errA != nil {
			continue
		}
		if g.StartDelay != inv.StartDelay || (g.Cold == 1) != inv.Cold {
			t.Fatalf("round %d: start divergence: group=%+v single=%+v", round, g, inv)
		}
		if round%2 == 1 { // release half so later rounds hit the warm pool
			a.ReleaseGroup(1, memMB, 2.5)
			b.ReleaseGroup(1, memMB, 2.5)
		}
	}
	if a.Meter() != b.Meter() {
		t.Fatalf("meter divergence: group=%+v single=%+v", a.Meter(), b.Meter())
	}
	if a.InFlight() != b.InFlight() || a.WarmTotal() != b.WarmTotal() {
		t.Fatalf("admission state divergence: inflight %d/%d warm %d/%d",
			a.InFlight(), b.InFlight(), a.WarmTotal(), b.WarmTotal())
	}
}

// TestGroupStartFoldsItsMembers: the summary InvokeGroup returns is the
// slowest member's start delay and the number of cold members, member for
// member what Invoke1 draws on a twin platform (3 prewarmed of 8).
func TestGroupStartFoldsItsMembers(t *testing.T) {
	a, b := newTestPlatform(9), newTestPlatform(9)
	for _, p := range []*Platform{a, b} {
		if err := p.Prewarm(3, 1024); err != nil {
			t.Fatal(err)
		}
	}
	g, err := a.InvokeGroup(8, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var want GroupStart
	for i := 0; i < 8; i++ {
		inv, err := b.Invoke1(1024)
		if err != nil {
			t.Fatal(err)
		}
		want.StartDelay = max(want.StartDelay, inv.StartDelay)
		if inv.Cold {
			want.Cold++
		}
	}
	if g != want || g.Cold != 5 {
		t.Fatalf("InvokeGroup(8) = %+v, members fold to %+v (want 5 cold)", g, want)
	}
	if a.Meter() != b.Meter() {
		t.Fatalf("meter divergence: group=%+v members=%+v", a.Meter(), b.Meter())
	}
}

// TestInvoke1DenialIsSentinel: the capacity denial is the plain sentinel
// (errors.Is-able, allocation-free), and denial changes no state.
func TestInvoke1DenialIsSentinel(t *testing.T) {
	s := sim.New(1)
	limits := DefaultLimits()
	limits.MaxConcurrency = 1
	p := New(s, limits, DefaultStartup(), pricing.Default())
	if _, err := p.Invoke1(512); err != nil {
		t.Fatalf("first invoke: %v", err)
	}
	meter := p.Meter()
	_, err := p.Invoke1(512)
	if err != ErrConcurrencyExceeded {
		t.Fatalf("denial error = %v, want the plain ErrConcurrencyExceeded sentinel", err)
	}
	if !errors.Is(err, ErrConcurrencyExceeded) {
		t.Fatal("denial not errors.Is(ErrConcurrencyExceeded)")
	}
	if p.Meter() != meter || p.InFlight() != 1 {
		t.Fatal("denied invocation mutated platform state")
	}
}

// TestInvoke1InvalidMemory mirrors InvokeGroup's validation.
func TestInvoke1InvalidMemory(t *testing.T) {
	p := newTestPlatform(1)
	if _, err := p.Invoke1(64); err == nil {
		t.Fatal("64 MB below MinMemoryMB admitted")
	}
}

// TestInvoke1SteadyStateZeroAlloc: with observability disabled, the
// admit/release cycle must not touch the heap — this is the per-arrival hot
// path of the traffic scenarios, at the WarmTTL they run: every cycle cancels
// one reclaim event and schedules the next.
func TestInvoke1SteadyStateZeroAlloc(t *testing.T) {
	p := newTestPlatform(3)
	if _, err := p.Invoke1(512); err != nil {
		t.Fatal(err)
	}
	p.ReleaseGroup(1, 512, 1)
	if n := testing.AllocsPerRun(1000, func() {
		inv, err := p.Invoke1(512)
		if err != nil || inv.Cold {
			t.Fatal("warm path not taken")
		}
		p.ReleaseGroup(1, 512, 1)
	}); n != 0 {
		t.Fatalf("warm Invoke1+ReleaseGroup allocates %.1f times per cycle, want 0", n)
	}
}

// TestInvoke1DenialZeroAlloc: the denial storm under a saturated cap is
// also allocation-free.
func TestInvoke1DenialZeroAlloc(t *testing.T) {
	s := sim.New(1)
	limits := DefaultLimits()
	limits.MaxConcurrency = 1
	p := New(s, limits, DefaultStartup(), pricing.Default())
	if _, err := p.Invoke1(512); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := p.Invoke1(512); err == nil {
			t.Fatal("over-cap invoke admitted")
		}
	}); n != 0 {
		t.Fatalf("Invoke1 denial allocates %.1f times per call, want 0", n)
	}
}

// TestInvokeGroupDenialZeroAlloc: both entry points share one denial
// contract. A group refused at the cap — one function or eight — gets the
// bare sentinel, and the refusal formats and allocates nothing: open-loop
// tenants are refused more often than they are admitted.
func TestInvokeGroupDenialZeroAlloc(t *testing.T) {
	limits := DefaultLimits()
	limits.MaxConcurrency = 8
	p := New(sim.New(1), limits, DefaultStartup(), pricing.Default())
	if _, err := p.InvokeGroup(8, 512); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 8} {
		if allocs := testing.AllocsPerRun(1000, func() {
			if _, err := p.InvokeGroup(n, 512); err != ErrConcurrencyExceeded {
				t.Fatalf("InvokeGroup(%d) at the cap: err = %v, want the bare ErrConcurrencyExceeded", n, err)
			}
		}); allocs != 0 {
			t.Errorf("a refused InvokeGroup(%d) allocates %.1f times, want 0", n, allocs)
		}
	}
}
