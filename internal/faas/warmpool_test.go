package faas

import (
	"errors"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/pricing"
	"repro/internal/sim"
)

// --- warm-pool expiry bookkeeping (FIFO head-pop regression tests) ---

// TestWarmPoolInterleavings drives the exact sequence the bugfix targets:
// Prewarm → takeWarm (via InvokeGroup) → TTL-fire → DropWarm, checking the
// count and pending-reclaim invariants after every step.
func TestWarmPoolInterleavings(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)

	if err := p.Prewarm(5, 1769); err != nil {
		t.Fatal(err)
	}
	if p.WarmCount(1769) != 5 || p.PendingExpiries(1769) != 5 || p.WarmTotal() != 5 {
		t.Fatalf("after Prewarm: warm=%d pending=%d total=%d", p.WarmCount(1769), p.PendingExpiries(1769), p.WarmTotal())
	}

	// Consume two warm sandboxes before any reclaim fires: both the count
	// and the pending-reclaim queue must shrink in lockstep.
	s.RunUntil(sim.Time(p.WarmTTL / 2))
	if _, err := p.InvokeGroup(2, 1769); err != nil {
		t.Fatal(err)
	}
	if p.WarmCount(1769) != 3 || p.PendingExpiries(1769) != 3 {
		t.Fatalf("after takeWarm x2: warm=%d pending=%d", p.WarmCount(1769), p.PendingExpiries(1769))
	}

	// Let the remaining three reclaims fire.
	s.RunUntil(sim.Time(p.WarmTTL + 1))
	if p.WarmCount(1769) != 0 || p.PendingExpiries(1769) != 0 || p.WarmTotal() != 0 {
		t.Fatalf("after TTL fire: warm=%d pending=%d total=%d", p.WarmCount(1769), p.PendingExpiries(1769), p.WarmTotal())
	}

	// Release the in-flight group: sandboxes come back warm with fresh
	// reclaims; DropWarm must cancel them all without disturbing later runs.
	p.ReleaseGroup(2, 1769, 10)
	if p.WarmCount(1769) != 2 || p.PendingExpiries(1769) != 2 {
		t.Fatalf("after release: warm=%d pending=%d", p.WarmCount(1769), p.PendingExpiries(1769))
	}
	p.DropWarm(1769)
	if p.WarmCount(1769) != 0 || p.PendingExpiries(1769) != 0 || p.WarmTotal() != 0 {
		t.Fatalf("after DropWarm: warm=%d pending=%d total=%d", p.WarmCount(1769), p.PendingExpiries(1769), p.WarmTotal())
	}
	s.RunUntil(1e9)
	if p.WarmCount(1769) != 0 || p.WarmTotal() != 0 {
		t.Fatalf("cancelled reclaims still fired: warm=%d total=%d", p.WarmCount(1769), p.WarmTotal())
	}
}

// TestWarmPoolChurnKeepsBookkeepingConsistent hammers the queue through many
// Prewarm/consume/expire rounds across two memory sizes — the Prewarm-scale
// churn that made the old identity-scan removal quadratic — and checks the
// invariant pending == warm (which holds while WarmTTL is enabled and
// constant) the whole way.
func TestWarmPoolChurnKeepsBookkeepingConsistent(t *testing.T) {
	s := sim.New(7)
	p := NewDefault(s)
	p.WarmLimit = 0 // exercise churn beyond any cap

	check := func(step string) {
		t.Helper()
		for _, mem := range []int{512, 1769} {
			if p.PendingExpiries(mem) != p.WarmCount(mem) {
				t.Fatalf("%s: mem=%d pending=%d != warm=%d", step, mem, p.PendingExpiries(mem), p.WarmCount(mem))
			}
		}
		if p.WarmTotal() != p.WarmCount(512)+p.WarmCount(1769) {
			t.Fatalf("%s: warmTotal=%d != %d+%d", step, p.WarmTotal(), p.WarmCount(512), p.WarmCount(1769))
		}
	}

	for round := 0; round < 60; round++ {
		mem := 512
		if round%2 == 1 {
			mem = 1769
		}
		if err := p.Prewarm(40, mem); err != nil {
			t.Fatal(err)
		}
		check("prewarm")
		// Consume some warm sandboxes (partial: leaves reclaims pending).
		if _, err := p.InvokeGroup(15, mem); err != nil {
			t.Fatal(err)
		}
		check("invoke")
		p.ReleaseGroup(15, mem, 1)
		check("release")
		// Advance partway so later rounds interleave with earlier
		// rounds' reclaims firing.
		s.RunUntil(s.Now() + sim.Time(p.WarmTTL/7))
		check("advance")
	}
	s.RunUntil(s.Now() + sim.Time(p.WarmTTL+1))
	check("drain")
	if p.WarmTotal() != 0 {
		t.Fatalf("pool not fully reclaimed after drain: %d", p.WarmTotal())
	}
}

// TestWarmExpiryLoweredTTLClampsToScheduleOrder: lowering WarmTTL mid-run
// must not let a later-provisioned sandbox expire before earlier ones. The
// expiry queue's head-pop fast path and takeWarm's cancel-the-earliest both
// assume reclaims fire in schedule (FIFO) order — before the fix a lowered
// TTL scheduled new reclaims ahead of pending ones, violating that order:
// the new sandboxes died first, takeWarm cancelled the wrong (out-of-order)
// reclaims, and removal degraded to the O(n) scan fallback. The fix clamps
// a new reclaim to fire no earlier than the queue's latest pending
// deadline, so the pool drains oldest-first at every TTL setting.
func TestWarmExpiryLoweredTTLClampsToScheduleOrder(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)

	if err := p.Prewarm(2, 1769); err != nil { // reclaims scheduled for t=600
		t.Fatal(err)
	}
	p.WarmTTL = 10
	if err := p.Prewarm(2, 1769); err != nil { // t=10 nominal, clamped to 600
		t.Fatal(err)
	}
	// Nothing may expire before the earlier sandboxes' deadline: the
	// later-provisioned pair is clamped behind them, not reclaimed first.
	s.RunUntil(20)
	if p.WarmCount(1769) != 4 || p.PendingExpiries(1769) != 4 {
		t.Fatalf("lowered TTL fired ahead of pending reclaims: warm=%d pending=%d, want 4/4",
			p.WarmCount(1769), p.PendingExpiries(1769))
	}
	// Consuming one sandbox still cancels the earliest pending reclaim.
	if _, err := p.InvokeGroup(1, 1769); err != nil {
		t.Fatal(err)
	}
	if p.WarmCount(1769) != 3 || p.PendingExpiries(1769) != 3 {
		t.Fatalf("after takeWarm: warm=%d pending=%d", p.WarmCount(1769), p.PendingExpiries(1769))
	}
	s.RunUntil(601)
	if p.WarmCount(1769) != 0 || p.PendingExpiries(1769) != 0 {
		t.Fatalf("after clamped fire: warm=%d pending=%d", p.WarmCount(1769), p.PendingExpiries(1769))
	}

	// Once the old deadlines have passed, the lowered TTL applies cleanly.
	if err := p.Prewarm(1, 1769); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(612)
	if p.WarmCount(1769) != 0 {
		t.Fatalf("post-drain sandbox ignored the lowered TTL: warm=%d", p.WarmCount(1769))
	}
}

// TestWarmExpiryRaisedTTLKeepsOrder: raising the TTL naturally schedules
// later than every pending reclaim; the clamp must not disturb that.
func TestWarmExpiryRaisedTTLKeepsOrder(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)
	p.WarmTTL = 10
	if err := p.Prewarm(1, 1769); err != nil { // reclaim at t=10
		t.Fatal(err)
	}
	p.WarmTTL = 100
	if err := p.Prewarm(1, 1769); err != nil { // reclaim at t=100
		t.Fatal(err)
	}
	s.RunUntil(11)
	if p.WarmCount(1769) != 1 || p.PendingExpiries(1769) != 1 {
		t.Fatalf("after first fire: warm=%d pending=%d", p.WarmCount(1769), p.PendingExpiries(1769))
	}
	s.RunUntil(101)
	if p.WarmCount(1769) != 0 || p.PendingExpiries(1769) != 0 {
		t.Fatalf("after second fire: warm=%d pending=%d", p.WarmCount(1769), p.PendingExpiries(1769))
	}
}

// --- Prewarm cap (typed-error boundary tests) ---

func TestPrewarmCapBoundary(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)
	cap := p.Limits().MaxConcurrency
	if p.WarmLimit != cap {
		t.Fatalf("WarmLimit default = %d, want MaxConcurrency %d", p.WarmLimit, cap)
	}

	// Exactly at the cap: admitted.
	if err := p.Prewarm(cap, 1769); err != nil {
		t.Fatalf("Prewarm at cap rejected: %v", err)
	}
	if p.WarmTotal() != cap {
		t.Fatalf("WarmTotal = %d, want %d", p.WarmTotal(), cap)
	}

	// One past the cap: typed error, no state change, no billing.
	before := p.Meter()
	err := p.Prewarm(1, 512)
	if !errors.Is(err, ErrWarmPoolExceeded) {
		t.Fatalf("Prewarm past cap: err = %v, want ErrWarmPoolExceeded", err)
	}
	if p.WarmTotal() != cap || p.WarmCount(512) != 0 {
		t.Fatalf("rejected Prewarm changed state: total=%d warm512=%d", p.WarmTotal(), p.WarmCount(512))
	}
	if after := p.Meter(); after != before {
		t.Fatalf("rejected Prewarm billed: %+v -> %+v", before, after)
	}

	// Consuming a sandbox frees cap headroom again.
	if _, err := p.InvokeGroup(1, 1769); err != nil {
		t.Fatal(err)
	}
	if err := p.Prewarm(1, 512); err != nil {
		t.Fatalf("Prewarm after freeing headroom rejected: %v", err)
	}

	// The cap spans memory sizes: it bounds the account-wide pool.
	if err := p.Prewarm(1, 1024); !errors.Is(err, ErrWarmPoolExceeded) {
		t.Fatalf("cross-size Prewarm past cap: err = %v, want ErrWarmPoolExceeded", err)
	}
}

func TestPrewarmCapDisabled(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)
	p.WarmLimit = 0
	if err := p.Prewarm(p.Limits().MaxConcurrency+100, 512); err != nil {
		t.Fatalf("WarmLimit=0 should disable the cap: %v", err)
	}
}

// --- billing edge coverage ---

// TestInvokeGroupAtExactlyMaxConcurrency admits a group that fills the
// account cap to the last slot and checks the bill covers every instance.
func TestInvokeGroupAtExactlyMaxConcurrency(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)
	n := p.Limits().MaxConcurrency

	g, err := p.InvokeGroup(n, 512)
	if err != nil {
		t.Fatalf("InvokeGroup at exactly MaxConcurrency rejected: %v", err)
	}
	if g.Cold != n || p.InFlight() != n {
		t.Fatalf("cold-started %d, in flight %d, want %d on a fresh platform", g.Cold, p.InFlight(), n)
	}
	if _, err := p.InvokeGroup(1, 512); !errors.Is(err, ErrConcurrencyExceeded) {
		t.Fatalf("one past cap: err = %v, want ErrConcurrencyExceeded", err)
	}
	m := p.Meter()
	if m.Invocations != uint64(n) {
		t.Fatalf("Invocations = %d, want %d", m.Invocations, n)
	}
	wantInvoke := float64(n) * pricing.Default().FunctionInvoke
	if math.Abs(m.InvokeCost-wantInvoke) > 1e-9 {
		t.Fatalf("InvokeCost = %g, want %g", m.InvokeCost, wantInvoke)
	}
	p.ReleaseGroup(n, 512, 1)
	if p.InFlight() != 0 {
		t.Fatalf("in flight after release = %d", p.InFlight())
	}
}

// TestReleaseWarmReturnThenExpiryPreservesWarmCount checks the warm-return
// path end to end: released sandboxes appear in WarmCount, survive until
// their TTL, then expire without double-decrement.
func TestReleaseWarmReturnThenExpiryPreservesWarmCount(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)

	if _, err := p.InvokeGroup(3, 1769); err != nil {
		t.Fatal(err)
	}
	p.ReleaseGroup(3, 1769, 5)
	if p.WarmCount(1769) != 3 {
		t.Fatalf("warm after release = %d, want 3", p.WarmCount(1769))
	}
	// Reuse one warm sandbox partway through the TTL; its reclaim must be
	// cancelled while the other two stay on schedule.
	s.RunUntil(sim.Time(p.WarmTTL / 2))
	g, err := p.InvokeGroup(1, 1769)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cold != 0 {
		t.Fatal("expected a warm start from the returned sandbox")
	}
	if p.WarmCount(1769) != 2 {
		t.Fatalf("warm after reuse = %d, want 2", p.WarmCount(1769))
	}
	s.RunUntil(sim.Time(p.WarmTTL + 1))
	if p.WarmCount(1769) != 0 {
		t.Fatalf("warm after expiry = %d, want 0", p.WarmCount(1769))
	}
	// Releasing the reused instance after the others expired restarts the
	// cycle cleanly.
	p.ReleaseGroup(1, 1769, 5)
	if p.WarmCount(1769) != 1 || p.PendingExpiries(1769) != 1 {
		t.Fatalf("warm=%d pending=%d after late release", p.WarmCount(1769), p.PendingExpiries(1769))
	}
}

// TestMeterGBSecondsMatchesPricing cross-checks the meter's GB-seconds and
// compute-cost accounting against pricing.ComputeOnlyCost on the same
// inputs.
func TestMeterGBSecondsMatchesPricing(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)
	pb := pricing.Default()

	cases := []struct {
		n, memMB    int
		secondsEach float64
	}{
		{4, 1769, 12.5},
		{1, 128, 0.001},
		{10, 10240, 3600},
	}
	var wantGBs, wantCost float64
	for _, c := range cases {
		if _, err := p.InvokeGroup(c.n, c.memMB); err != nil {
			t.Fatal(err)
		}
		p.ReleaseGroup(c.n, c.memMB, c.secondsEach)
		wantGBs += float64(c.n) * c.secondsEach * float64(c.memMB) / 1024
		wantCost += float64(c.n) * pb.ComputeOnlyCost(c.secondsEach, float64(c.memMB))
	}
	m := p.Meter()
	if math.Abs(m.GBSeconds-wantGBs) > 1e-9*wantGBs {
		t.Fatalf("GBSeconds = %g, want %g", m.GBSeconds, wantGBs)
	}
	if math.Abs(m.ComputeCost-wantCost) > 1e-9*wantCost {
		t.Fatalf("ComputeCost = %g, want %g", m.ComputeCost, wantCost)
	}
	// All cases ran at or above the 1 ms minimum bill, so the meter's
	// GB-seconds times the per-GB-second rate must reproduce the compute
	// bill exactly.
	if math.Abs(m.GBSeconds*pb.FunctionGBSecond-m.ComputeCost) > 1e-9*m.ComputeCost {
		t.Fatalf("GBSeconds*rate = %g != ComputeCost %g", m.GBSeconds*pb.FunctionGBSecond, m.ComputeCost)
	}
}

// TestMeterMinimumBillEdge: below the 1 ms billing granularity the bill uses
// the floored duration while GBSeconds records actual compute — the two
// accounts intentionally diverge.
func TestMeterMinimumBillEdge(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)
	pb := pricing.Default()
	if _, err := p.InvokeGroup(1, 1024); err != nil {
		t.Fatal(err)
	}
	p.ReleaseGroup(1, 1024, 0.0001) // 0.1 ms, under the 1 ms floor
	m := p.Meter()
	wantGBs := 0.0001 * 1024.0 / 1024
	if math.Abs(m.GBSeconds-wantGBs) > 1e-15 {
		t.Fatalf("GBSeconds = %g, want actual %g", m.GBSeconds, wantGBs)
	}
	wantCost := pb.ComputeOnlyCost(0.0001, 1024)
	if math.Abs(m.ComputeCost-wantCost) > 1e-15 {
		t.Fatalf("ComputeCost = %g, want %g", m.ComputeCost, wantCost)
	}
	if m.ComputeCost <= m.GBSeconds*pb.FunctionGBSecond {
		t.Fatalf("min-bill floor not applied: cost %g vs unfloored %g", m.ComputeCost, m.GBSeconds*pb.FunctionGBSecond)
	}
}

// --- observability instrumentation ---

func TestPlatformObservability(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)
	o := obs.New()
	p.SetObserver(o)

	if _, err := p.InvokeGroup(2, 1769); err != nil {
		t.Fatal(err)
	}
	p.ReleaseGroup(2, 1769, 10)
	if err := p.Prewarm(1, 512); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(sim.Time(p.WarmTTL + 1))

	st := o.Stats()
	if got := st.Counter("faas.invocations"); got != 3 {
		t.Fatalf("faas.invocations = %v, want 3", got)
	}
	if got := st.Counter("faas.cold_starts"); got != 2 {
		t.Fatalf("faas.cold_starts = %v, want 2", got)
	}
	if got := st.Counter("faas.warm_expired"); got != 3 {
		t.Fatalf("faas.warm_expired = %v, want 3", got)
	}
	if got := st.Gauge("faas.in_flight_peak"); got != 2 {
		t.Fatalf("faas.in_flight_peak = %v, want 2", got)
	}
	wantGBs := 2 * 10 * 1769.0 / 1024
	if got := st.Counter("faas.gb_seconds"); math.Abs(got-wantGBs) > 1e-9 {
		t.Fatalf("faas.gb_seconds = %v, want %v", got, wantGBs)
	}
	names := map[string]bool{}
	for _, ev := range o.Trace().Events() {
		names[ev.Name] = true
		if ev.Track != "faas" || ev.Cat != "faas" {
			t.Fatalf("unexpected track/cat: %+v", ev)
		}
	}
	for _, want := range []string{"invoke_group", "release_group", "prewarm"} {
		if !names[want] {
			t.Fatalf("missing trace event %q (got %v)", want, names)
		}
	}
}

// BenchmarkWarmPoolExpiry measures Prewarm-scale reclaim churn (3000
// sandboxes, the account burst limit). The head-pop queue keeps each fired
// reclaim O(1); the old identity scan + element copy made this quadratic.
func BenchmarkWarmPoolExpiry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.New(1)
		p := NewDefault(s)
		if err := p.Prewarm(3000, 1769); err != nil {
			b.Fatal(err)
		}
		s.RunUntil(sim.Time(p.WarmTTL + 1))
		if p.WarmTotal() != 0 {
			b.Fatal("pool not drained")
		}
	}
}
