package faas

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

func newTestPlatform(seed uint64) *Platform {
	return NewDefault(sim.New(seed))
}

// TestGroupStartFoldsItsMembers: the summary InvokeGroup returns is the
// slowest member's start delay and the number of cold members, member for
// member what eight single admissions draw on a twin platform (3 warm of 8).
func TestGroupStartFoldsItsMembers(t *testing.T) {
	a, b := newTestPlatform(9), newTestPlatform(9)
	for _, p := range []*Platform{a, b} {
		warmUp(t, p, 3, 1024)
	}
	g, err := a.InvokeGroup(8, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var want GroupStart
	for i := 0; i < 8; i++ {
		m, err := b.InvokeGroup(1, 1024)
		if err != nil {
			t.Fatal(err)
		}
		want.StartDelay = max(want.StartDelay, m.StartDelay)
		want.Cold += m.Cold
	}
	if g != want || g.Cold != 5 {
		t.Fatalf("InvokeGroup(8) = %+v, members fold to %+v (want 5 cold)", g, want)
	}
	if a.Meter() != b.Meter() {
		t.Fatalf("meter divergence: group=%+v members=%+v", a.Meter(), b.Meter())
	}
}

// TestInvokeGroupDenialZeroAlloc: a group refused at the cap — one function
// or eight — gets the bare sentinel, changes no state, and formats and
// allocates nothing: open-loop tenants are refused more often than they are
// admitted.
func TestInvokeGroupDenialZeroAlloc(t *testing.T) {
	s := sim.New(1)
	p := NewOnShard(s.Main(), s.Stream("faas.startup"), 8)
	if _, err := p.InvokeGroup(8, 512); err != nil {
		t.Fatal(err)
	}
	meter := p.Meter()
	for _, n := range []int{1, 8} {
		if allocs := testing.AllocsPerRun(1000, func() {
			if _, err := p.InvokeGroup(n, 512); err != ErrConcurrencyExceeded {
				t.Fatalf("InvokeGroup(%d) at the cap: err = %v, want the bare ErrConcurrencyExceeded", n, err)
			}
		}); allocs != 0 {
			t.Errorf("a refused InvokeGroup(%d) allocates %.1f times, want 0", n, allocs)
		}
	}
	if p.Meter() != meter || p.InFlight() != 8 || p.WarmTotal() != 0 {
		t.Fatalf("refusals changed the platform: meter %+v (was %+v), in flight %d, warm %d",
			p.Meter(), meter, p.InFlight(), p.WarmTotal())
	}
}

// TestInvokeGroupSteadyStateZeroAlloc: with observability disabled, warm
// InvokeGroup(n)+ReleaseGroup(n) cycles allocate nothing at any group size —
// each takes a whole batch, cancels its one reclaim and schedules the next —
// and neither does ReclaimWarm walking several sizes' pools, emptying some
// batches and splitting others.
func TestInvokeGroupSteadyStateZeroAlloc(t *testing.T) {
	p := newTestPlatform(3)
	for _, n := range []int{1, 8, 200} {
		warmUp(t, p, n, 1024)
		if allocs := testing.AllocsPerRun(1000, func() {
			if g, err := p.InvokeGroup(n, 1024); err != nil || g.Cold != 0 {
				t.Fatalf("InvokeGroup(%d): %+v, %v: warm path not taken", n, g, err)
			}
			p.ReleaseGroup(n, 1024, 1)
		}); allocs != 0 {
			t.Errorf("warm InvokeGroup(%d)+ReleaseGroup allocates %.1f times per cycle, want 0", n, allocs)
		}
	}
	for _, memMB := range []int{512, 1769} {
		warmUp(t, p, 8, memMB)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := p.InvokeGroup(8, 1769); err != nil {
			t.Fatal(err)
		}
		p.ReleaseGroup(4, 1769, 1)
		p.ReleaseGroup(4, 1769, 1)
		if got := p.ReclaimWarm(5); got != 5 {
			t.Fatalf("ReclaimWarm(5) = %d", got)
		}
		if _, err := p.InvokeGroup(3, 512); err != nil {
			t.Fatal(err)
		}
		p.ReleaseGroup(3, 512, 1)
	}); allocs != 0 {
		t.Errorf("ReclaimWarm with partial batches allocates %.1f times per cycle, want 0", allocs)
	}
}

// The TestInvoke1* tests pin the single-function admission, InvokeGroup(1, ·),
// the shared account's per-arrival call.

// TestInvoke1DenialIsSentinel: a single function refused at the cap gets the
// plain sentinel (errors.Is-able, allocation-free), and the denial changes
// no state.
func TestInvoke1DenialIsSentinel(t *testing.T) {
	s := sim.New(1)
	p := NewOnShard(s.Main(), s.Stream("faas.startup"), 1)
	if _, err := p.InvokeGroup(1, 512); err != nil {
		t.Fatalf("first invoke: %v", err)
	}
	meter := p.Meter()
	_, err := p.InvokeGroup(1, 512)
	if err != ErrConcurrencyExceeded {
		t.Fatalf("denial error = %v, want the plain ErrConcurrencyExceeded sentinel", err)
	}
	if !errors.Is(err, ErrConcurrencyExceeded) {
		t.Fatal("denial not errors.Is(ErrConcurrencyExceeded)")
	}
	if p.Meter() != meter || p.InFlight() != 1 || p.WarmTotal() != 0 {
		t.Fatal("denied invocation mutated platform state")
	}
}

// TestInvoke1InvalidMemory: a single function outside the account's memory
// range is rejected and admits nothing.
func TestInvoke1InvalidMemory(t *testing.T) {
	p := newTestPlatform(1)
	for _, memMB := range []int{64, MaxMemoryMB + 1} {
		if _, err := p.InvokeGroup(1, memMB); err == nil {
			t.Errorf("%d MB outside [MinMemoryMB, MaxMemoryMB] admitted", memMB)
		}
	}
	if p.InFlight() != 0 || p.Meter().Invocations != 0 {
		t.Fatal("rejected invocation mutated platform state")
	}
}

// TestInvoke1SteadyStateZeroAlloc: with observability disabled, the
// single-function admit/release cycle must not touch the heap — this is the
// per-arrival hot path of the traffic scenarios, at the WarmTTL they run:
// every cycle cancels one reclaim event and schedules the next.
func TestInvoke1SteadyStateZeroAlloc(t *testing.T) {
	p := newTestPlatform(3)
	if _, err := p.InvokeGroup(1, 512); err != nil {
		t.Fatal(err)
	}
	p.ReleaseGroup(1, 512, 1)
	if n := testing.AllocsPerRun(1000, func() {
		g, err := p.InvokeGroup(1, 512)
		if err != nil || g.Cold != 0 {
			t.Fatal("warm path not taken")
		}
		p.ReleaseGroup(1, 512, 1)
	}); n != 0 {
		t.Fatalf("warm InvokeGroup(1)+ReleaseGroup allocates %.1f times per cycle, want 0", n)
	}
}

// TestInvoke1DenialZeroAlloc: the single-function denial storm under a
// saturated cap is also allocation-free.
func TestInvoke1DenialZeroAlloc(t *testing.T) {
	s := sim.New(1)
	p := NewOnShard(s.Main(), s.Stream("faas.startup"), 1)
	if _, err := p.InvokeGroup(1, 512); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := p.InvokeGroup(1, 512); err == nil {
			t.Fatal("over-cap invoke admitted")
		}
	}); n != 0 {
		t.Fatalf("InvokeGroup(1) denial allocates %.1f times per call, want 0", n)
	}
}
