package faas

import (
	"errors"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/pricing"
	"repro/internal/sim"
)

// --- warm-pool expiry bookkeeping ---

// checkBatches fails unless the kernel holds exactly one pending reclaim per
// live release batch, each pool's lane holds its own batches' reclaims, and
// the batches' counts — none of them empty — add up to WarmTotal. It returns
// the number of live batches.
func checkBatches(t testing.TB, s *sim.Simulation, p *Platform, step string) int {
	t.Helper()
	total, batches := 0, 0
	for _, w := range p.pools {
		live := w.counts[w.head:]
		sum := 0
		for _, c := range live {
			if c <= 0 {
				t.Fatalf("%s: %d MB pool holds a batch of %d", step, w.memMB, c)
			}
			sum += c
		}
		if w.lane.Len() != len(live) {
			t.Fatalf("%s: %d MB pool: %d batches %v, %d reclaims on its lane", step, w.memMB, len(live), live, w.lane.Len())
		}
		total += sum
		batches += len(live)
	}
	if total != p.WarmTotal() || s.Pending() != batches {
		t.Fatalf("%s: batches sum to %d, WarmTotal %d; %d batches, %d events pending",
			step, total, p.WarmTotal(), batches, s.Pending())
	}
	return batches
}

// TestWarmPoolInterleavings drives a warm pool through warm-up → warm start
// (InvokeGroup) → TTL fire → release → ReclaimWarm, checking after every step
// the warm count and that the pool holds one pending reclaim — one kernel
// event — per release batch.
func TestWarmPoolInterleavings(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)
	check := func(step string, warm, batches int) {
		t.Helper()
		if p.WarmCount(1769) != warm || checkBatches(t, s, p, step) != batches {
			t.Fatalf("%s: warm=%d pending=%d, want %d sandboxes in %d batches", step, p.WarmCount(1769), s.Pending(), warm, batches)
		}
	}

	warmUp(t, p, 5, 1769)
	check("after warm-up", 5, 1)

	// Consume two warm sandboxes before any reclaim fires: the count shrinks,
	// and the batch and its one reclaim stay.
	s.RunUntil(WarmTTL / 2)
	if _, err := p.InvokeGroup(2, 1769); err != nil {
		t.Fatal(err)
	}
	check("after two warm starts", 3, 1)

	// Let the batch's reclaim fire: the remaining three leave together.
	s.RunUntil(WarmTTL + 1)
	check("after TTL fire", 0, 0)

	// Release the in-flight group: sandboxes come back warm as one batch with
	// a fresh reclaim; ReclaimWarm must cancel it without disturbing later runs.
	p.ReleaseGroup(2, 1769, 10)
	check("after release", 2, 1)
	if got := p.ReclaimWarm(2); got != 2 {
		t.Fatalf("ReclaimWarm(2) = %d", got)
	}
	check("after ReclaimWarm", 0, 0)
	s.RunUntil(1e9)
	check("after the canceled reclaim's time", 0, 0)
}

// TestWarmPoolChurnKeepsBookkeepingConsistent hammers the pools through many
// warm-up/consume/expire rounds across two memory sizes — the scale of churn
// that made the old identity-scan removal quadratic — and checks that the
// per-size counts add up to the total and that the kernel holds one reclaim
// per live release batch the whole way.
func TestWarmPoolChurnKeepsBookkeepingConsistent(t *testing.T) {
	s := sim.New(7)
	p := NewDefault(s)

	check := func(step string) {
		t.Helper()
		if sum := p.WarmCount(512) + p.WarmCount(1769); p.WarmTotal() != sum {
			t.Fatalf("%s: warmTotal=%d != %d+%d", step, p.WarmTotal(), p.WarmCount(512), p.WarmCount(1769))
		}
		checkBatches(t, s, p, step)
	}

	for round := 0; round < 60; round++ {
		mem := 512
		if round%2 == 1 {
			mem = 1769
		}
		warmUp(t, p, 40, mem)
		check("warm-up")
		// Consume some warm sandboxes (partial: leaves reclaims pending).
		if _, err := p.InvokeGroup(15, mem); err != nil {
			t.Fatal(err)
		}
		check("invoke")
		p.ReleaseGroup(15, mem, 1)
		check("release")
		// Advance partway so later rounds interleave with earlier
		// rounds' reclaims firing.
		s.RunUntil(s.Now() + WarmTTL/7)
		check("advance")
	}
	s.RunUntil(s.Now() + WarmTTL + 1)
	check("drain")
	if p.WarmTotal() != 0 {
		t.Fatalf("pool not fully reclaimed after drain: %d", p.WarmTotal())
	}
}

// --- billing edge coverage ---

// TestInvokeGroupAtExactlyMaxConcurrency admits a group that fills the
// account cap to the last slot and checks the bill covers every instance.
func TestInvokeGroupAtExactlyMaxConcurrency(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)
	n := p.Cap()

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
	wantInvoke := float64(n) * pricing.FunctionInvoke
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
	s.RunUntil(WarmTTL / 2)
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
	s.RunUntil(WarmTTL + 1)
	if p.WarmCount(1769) != 0 {
		t.Fatalf("warm after expiry = %d, want 0", p.WarmCount(1769))
	}
	// Releasing the reused instance after the others expired restarts the
	// cycle cleanly.
	p.ReleaseGroup(1, 1769, 5)
	if p.WarmCount(1769) != 1 || s.Pending() != 1 {
		t.Fatalf("warm=%d pending=%d after late release", p.WarmCount(1769), s.Pending())
	}
}

// TestMeterGBSecondsMatchesPricing cross-checks the meter's GB-seconds and
// compute-cost accounting against pricing.ComputeOnlyCost on the same
// inputs.
func TestMeterGBSecondsMatchesPricing(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)

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
		wantCost += float64(c.n) * pricing.ComputeOnlyCost(c.secondsEach, float64(c.memMB))
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
	if math.Abs(m.GBSeconds*pricing.FunctionGBSecond-m.ComputeCost) > 1e-9*m.ComputeCost {
		t.Fatalf("GBSeconds*rate = %g != ComputeCost %g", m.GBSeconds*pricing.FunctionGBSecond, m.ComputeCost)
	}
}

// TestMeterMinimumBillEdge: below the 1 ms billing granularity the bill uses
// the floored duration while GBSeconds records actual compute — the two
// accounts intentionally diverge.
func TestMeterMinimumBillEdge(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)
	if _, err := p.InvokeGroup(1, 1024); err != nil {
		t.Fatal(err)
	}
	p.ReleaseGroup(1, 1024, 0.0001) // 0.1 ms, under the 1 ms floor
	m := p.Meter()
	wantGBs := 0.0001 * 1024.0 / 1024
	if math.Abs(m.GBSeconds-wantGBs) > 1e-15 {
		t.Fatalf("GBSeconds = %g, want actual %g", m.GBSeconds, wantGBs)
	}
	wantCost := pricing.ComputeOnlyCost(0.0001, 1024)
	if math.Abs(m.ComputeCost-wantCost) > 1e-15 {
		t.Fatalf("ComputeCost = %g, want %g", m.ComputeCost, wantCost)
	}
	if m.ComputeCost <= m.GBSeconds*pricing.FunctionGBSecond {
		t.Fatalf("min-bill floor not applied: cost %g vs unfloored %g", m.ComputeCost, m.GBSeconds*pricing.FunctionGBSecond)
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
	s.RunUntil(WarmTTL + 1)

	st := o.Stats()
	if got := st.Counter("faas.invocations"); got != 2 {
		t.Fatalf("faas.invocations = %v, want 2", got)
	}
	if got := st.Counter("faas.cold_starts"); got != 2 {
		t.Fatalf("faas.cold_starts = %v, want 2", got)
	}
	if got := st.Counter("faas.warm_expired"); got != 2 {
		t.Fatalf("faas.warm_expired = %v, want 2", got)
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
	for _, want := range []string{"invoke_group", "release_group"} {
		if !names[want] {
			t.Fatalf("missing trace event %q (got %v)", want, names)
		}
	}

	// A single-function admission is metered, not traced; a group of two
	// is both.
	p = NewDefault(sim.New(1))
	o = obs.New()
	p.SetObserver(o)
	if _, err := p.InvokeGroup(1, 512); err != nil {
		t.Fatal(err)
	}
	if got := o.Stats().Counter("faas.invocations"); got != 1 {
		t.Fatalf("after InvokeGroup(1): faas.invocations = %v, want 1", got)
	}
	if evs := o.Trace().Events(); len(evs) != 0 {
		t.Fatalf("InvokeGroup(1) recorded %d trace events, want none: %+v", len(evs), evs)
	}
	if _, err := p.InvokeGroup(2, 512); err != nil {
		t.Fatal(err)
	}
	if got := o.Stats().Counter("faas.invocations"); got != 3 {
		t.Fatalf("after InvokeGroup(2): faas.invocations = %v, want 3", got)
	}
	if evs := o.Trace().Events(); len(evs) != 1 || evs[0].Name != "invoke_group" {
		t.Fatalf("InvokeGroup(2) recorded %+v, want one invoke_group instant", evs)
	}
}

// BenchmarkWarmPoolExpiry measures a full pool's life (3000 sandboxes, the
// account burst limit, warmed by one group invoked and released): one batch
// and one reclaim, so past the group's cold starts its expiry is O(1); the
// old identity scan + element copy made it quadratic.
func BenchmarkWarmPoolExpiry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.New(1)
		p := NewDefault(s)
		warmUp(b, p, 3000, 1769)
		s.RunUntil(WarmTTL + 1)
		if p.WarmTotal() != 0 {
			b.Fatal("pool not drained")
		}
	}
}
