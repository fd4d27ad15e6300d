package faas

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/pricing"
	"repro/internal/sim"
)

func newPlatform() *Platform {
	return NewDefault(sim.New(1))
}

func TestValidateMemory(t *testing.T) {
	l := DefaultLimits()
	if err := l.ValidateMemory(128); err != nil {
		t.Errorf("128MB should be valid: %v", err)
	}
	if err := l.ValidateMemory(10240); err != nil {
		t.Errorf("10240MB should be valid: %v", err)
	}
	if err := l.ValidateMemory(64); err == nil {
		t.Error("64MB should be rejected")
	}
	if err := l.ValidateMemory(20480); err == nil {
		t.Error("20480MB should be rejected")
	}
}

func TestInvokeGroupColdThenWarm(t *testing.T) {
	p := newPlatform()
	// Member by member, so each one's own start is checked.
	for i := 0; i < 4; i++ {
		inv, err := p.Invoke1(1769)
		if err != nil {
			t.Fatal(err)
		}
		if !inv.Cold {
			t.Errorf("invocation %d should be cold on a fresh platform", i)
		}
		if inv.StartDelay < 1 {
			t.Errorf("cold start %g s too fast", inv.StartDelay)
		}
	}
	p.ReleaseGroup(4, 1769, 10)
	if p.WarmCount(1769) != 4 {
		t.Fatalf("warm pool = %d, want 4", p.WarmCount(1769))
	}
	g, err := p.InvokeGroup(4, 1769)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cold != 0 {
		t.Errorf("%d of 4 invocations cold after release, want all warm", g.Cold)
	}
	// Cold starts are slower than warm ones, so the slowest member being
	// warm-fast means every member was.
	if g.StartDelay != DefaultStartup().Warm {
		t.Errorf("warm start = %g, want %g", g.StartDelay, DefaultStartup().Warm)
	}
}

func TestInvokeGroupMixedWarmCold(t *testing.T) {
	p := newPlatform()
	if err := p.Prewarm(2, 1769); err != nil {
		t.Fatal(err)
	}
	g, err := p.InvokeGroup(5, 1769)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cold != 3 {
		t.Errorf("cold count = %d, want 3 (2 prewarmed of 5)", g.Cold)
	}
	if p.WarmCount(1769) != 0 {
		t.Errorf("warm pool = %d, want 0 after consumption", p.WarmCount(1769))
	}
}

func TestConcurrencyCap(t *testing.T) {
	p := newPlatform()
	if _, err := p.InvokeGroup(3000, 128); err != nil {
		t.Fatalf("3000 concurrent should be admitted: %v", err)
	}
	if _, err := p.InvokeGroup(1, 128); !errors.Is(err, ErrConcurrencyExceeded) {
		t.Fatalf("expected ErrConcurrencyExceeded, got %v", err)
	}
	p.ReleaseGroup(1, 128, 1)
	if _, err := p.InvokeGroup(1, 128); err != nil {
		t.Fatalf("after release one slot should be free: %v", err)
	}
}

func TestInvokeGroupRejectsBadArgs(t *testing.T) {
	p := newPlatform()
	if _, err := p.InvokeGroup(0, 1769); err == nil {
		t.Error("n=0 should be rejected")
	}
	if _, err := p.InvokeGroup(1, 64); err == nil {
		t.Error("64MB should be rejected")
	}
}

func TestBilling(t *testing.T) {
	p := newPlatform()
	pb := pricing.Default()
	if _, err := p.InvokeGroup(10, 1024); err != nil {
		t.Fatal(err)
	}
	p.ReleaseGroup(10, 1024, 100)
	m := p.Meter()
	if m.Invocations != 10 {
		t.Errorf("Invocations = %d, want 10", m.Invocations)
	}
	wantInvoke := 10 * pb.FunctionInvoke
	if math.Abs(m.InvokeCost-wantInvoke) > 1e-12 {
		t.Errorf("InvokeCost = %g, want %g", m.InvokeCost, wantInvoke)
	}
	wantGBs := 10 * 100 * 1.0 // 10 fns x 100s x 1GB
	if math.Abs(m.GBSeconds-wantGBs) > 1e-9 {
		t.Errorf("GBSeconds = %g, want %g", m.GBSeconds, wantGBs)
	}
	wantCompute := 10 * pb.ComputeOnlyCost(100, 1024)
	if math.Abs(m.ComputeCost-wantCompute) > 1e-12 {
		t.Errorf("ComputeCost = %g, want %g", m.ComputeCost, wantCompute)
	}
	if math.Abs(m.Total()-(wantInvoke+wantCompute)) > 1e-12 {
		t.Errorf("Total = %g, want %g", m.Total(), wantInvoke+wantCompute)
	}
}

func TestBillComputeDoesNotTouchAdmission(t *testing.T) {
	p := newPlatform()
	if _, err := p.InvokeGroup(2, 1769); err != nil {
		t.Fatal(err)
	}
	before := p.InFlight()
	p.BillCompute(2, 1769, 5)
	if p.InFlight() != before {
		t.Error("BillCompute changed admission state")
	}
	if p.Meter().GBSeconds == 0 {
		t.Error("BillCompute did not bill")
	}
}

func TestReleaseMoreThanInFlightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newPlatform().ReleaseGroup(1, 128, 1)
}

func TestColdStartGrowsWithMemory(t *testing.T) {
	p := newPlatform()
	if p.ColdStartEstimate(128) >= p.ColdStartEstimate(10240) {
		t.Error("cold start should grow with memory size")
	}
}

func TestColdStartJitterBounded(t *testing.T) {
	p := newPlatform()
	est := p.ColdStartEstimate(1769)
	frac := DefaultStartup().JitterFrac
	for i := 0; i < 100; i++ {
		inv, err := p.Invoke1(1769)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := est*(1-frac), est*(1+frac)
		if inv.StartDelay < lo-1e-9 || inv.StartDelay > hi+1e-9 {
			t.Fatalf("cold start %g outside [%g, %g]", inv.StartDelay, lo, hi)
		}
	}
}

func TestPrewarmChargesInvocations(t *testing.T) {
	p := newPlatform()
	if err := p.Prewarm(5, 512); err != nil {
		t.Fatal(err)
	}
	if p.Meter().Invocations != 5 {
		t.Errorf("Invocations = %d, want 5", p.Meter().Invocations)
	}
	if p.Meter().ComputeCost != 0 {
		t.Error("Prewarm should not bill compute")
	}
	if err := p.Prewarm(1, 1); err == nil {
		t.Error("Prewarm with invalid memory should fail")
	}
	if err := p.Prewarm(0, 512); err != nil {
		t.Errorf("Prewarm(0) should be a no-op, got %v", err)
	}
}

func TestDropWarm(t *testing.T) {
	p := newPlatform()
	if err := p.Prewarm(3, 512); err != nil {
		t.Fatal(err)
	}
	p.DropWarm(512)
	if p.WarmCount(512) != 0 {
		t.Error("DropWarm left sandboxes")
	}
}

func TestInvocationAccountingProperty(t *testing.T) {
	p := NewDefault(sim.New(42))
	if err := quick.Check(func(raw uint8) bool {
		n := int(raw%20) + 1
		if _, err := p.InvokeGroup(n, 1769); err != nil {
			return p.InFlight()+n > p.Limits().MaxConcurrency
		}
		p.ReleaseGroup(n, 1769, 1)
		return p.InFlight() >= 0
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if p.InFlight() != 0 {
		t.Errorf("InFlight = %d after balanced invoke/release, want 0", p.InFlight())
	}
}

func TestWarmSandboxesExpireAfterTTL(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)
	if err := p.Prewarm(3, 1769); err != nil {
		t.Fatal(err)
	}
	if p.WarmCount(1769) != 3 {
		t.Fatalf("warm = %d, want 3", p.WarmCount(1769))
	}
	// Just before the TTL nothing expires; just after, everything does.
	s.RunUntil(sim.Time(p.WarmTTL - 1))
	if p.WarmCount(1769) != 3 {
		t.Errorf("warm = %d before TTL, want 3", p.WarmCount(1769))
	}
	s.RunUntil(sim.Time(p.WarmTTL + 1))
	if p.WarmCount(1769) != 0 {
		t.Errorf("warm = %d after TTL, want 0", p.WarmCount(1769))
	}
}

func TestConsumedSandboxDoesNotExpireTwice(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)
	p.Prewarm(1, 512)
	// Consume the warm sandbox, then run a long job and release it.
	if _, err := p.InvokeGroup(1, 512); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(sim.Time(p.WarmTTL * 2)) // original reclaim would fire here
	p.ReleaseGroup(1, 512, 100)
	if p.WarmCount(512) != 1 {
		t.Fatalf("warm = %d after release, want 1", p.WarmCount(512))
	}
	// The fresh sandbox only expires a TTL after its release.
	s.RunUntil(s.Now() + sim.Time(p.WarmTTL-1))
	if p.WarmCount(512) != 1 {
		t.Errorf("warm = %d before its own TTL, want 1", p.WarmCount(512))
	}
	s.RunUntil(s.Now() + 2)
	if p.WarmCount(512) != 0 {
		t.Errorf("warm = %d after its TTL, want 0", p.WarmCount(512))
	}
}

func TestZeroTTLDisablesExpiry(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)
	p.WarmTTL = 0
	p.Prewarm(2, 512)
	s.RunUntil(1e9)
	if p.WarmCount(512) != 2 {
		t.Errorf("warm = %d with expiry disabled, want 2", p.WarmCount(512))
	}
}

func TestDropWarmCancelsReclaims(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)
	p.Prewarm(2, 512)
	p.DropWarm(512)
	p.Prewarm(1, 512) // new sandbox after the drop
	s.RunUntil(sim.Time(p.WarmTTL / 2))
	if p.WarmCount(512) != 1 {
		t.Errorf("warm = %d, want 1 (old reclaims must not fire on the new sandbox)", p.WarmCount(512))
	}
}
