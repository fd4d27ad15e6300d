package faas

import (
	"testing"

	"repro/internal/sim"
)

func TestKillSandboxesClampsAndDecrements(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)
	if _, err := p.InvokeGroup(10, 1769); err != nil {
		t.Fatal(err)
	}
	if got := p.KillSandboxes(3); got != 3 {
		t.Fatalf("killed %d, want 3", got)
	}
	if p.InFlight() != 7 {
		t.Fatalf("in flight %d, want 7", p.InFlight())
	}
	// Killing more than exist clamps; the count never goes negative.
	if got := p.KillSandboxes(100); got != 7 {
		t.Fatalf("killed %d, want 7", got)
	}
	if p.InFlight() != 0 {
		t.Fatalf("in flight %d, want 0", p.InFlight())
	}
	if got := p.KillSandboxes(1); got != 0 {
		t.Fatalf("killed %d from an empty platform", got)
	}
	// Killed sandboxes died — they are not warm capacity.
	if p.WarmTotal() != 0 {
		t.Fatalf("warm total %d after kills, want 0", p.WarmTotal())
	}
	// Replacements for killed sandboxes re-admit normally.
	if _, err := p.InvokeGroup(10, 1769); err != nil {
		t.Fatal(err)
	}
	if p.InFlight() != 10 {
		t.Fatalf("in flight %d after re-admission, want 10", p.InFlight())
	}
}

func TestReclaimWarmEvictsSmallestFirstAndCancelsExpiries(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)
	warmUp(t, p, 3, 512)
	warmUp(t, p, 2, 1769)
	if got := p.ReclaimWarm(4); got != 4 {
		t.Fatalf("reclaimed %d, want 4", got)
	}
	if p.WarmCount(512) != 0 || p.WarmCount(1769) != 1 || p.WarmTotal() != 1 {
		t.Fatalf("warm after reclaim: 512=%d 1769=%d total=%d, want 0/1/1",
			p.WarmCount(512), p.WarmCount(1769), p.WarmTotal())
	}
	// The evicted sandboxes' scheduled TTL reclaims were cancelled — a TTL
	// roll must not double-decrement the pool.
	if s.Pending() != 1 {
		t.Fatalf("%d reclaims pending, want 1", s.Pending())
	}
	s.RunUntil(WarmTTL + 1)
	if p.WarmTotal() != 0 {
		t.Fatalf("warm total %d after TTL, want 0", p.WarmTotal())
	}
	if got := p.ReclaimWarm(5); got != 0 {
		t.Fatalf("reclaimed %d from an empty pool", got)
	}
}

func TestColdSpikeFactorScalesDrawsNotEstimates(t *testing.T) {
	s1 := sim.New(1)
	calm := NewDefault(s1)
	s2 := sim.New(1)
	spiked := NewDefault(s2)
	spiked.SetColdSpikeFactor(4)

	base, err := calm.InvokeGroup(1, 1769)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := spiked.InvokeGroup(1, 1769)
	if err != nil {
		t.Fatal(err)
	}
	if base.Cold != 1 || hot.Cold != 1 {
		t.Fatal("expected cold starts")
	}
	// Same seed, same jitter draw: the spike is an exact multiplier.
	if got, want := hot.StartDelay, 4*base.StartDelay; got != want {
		t.Errorf("spiked cold start %g, want %g", got, want)
	}
	// Warm starts are unaffected.
	spiked.ReleaseGroup(1, 1769, 1)
	warm, err := spiked.InvokeGroup(1, 1769)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cold != 0 || warm.StartDelay != WarmStart {
		t.Errorf("warm start affected by spike: %+v", warm)
	}
	// Factors below 1 reset to neutral.
	spiked.SetColdSpikeFactor(0)
	spiked.ReleaseGroup(1, 1769, 1)
	if spiked.coldSpike != 1 {
		t.Errorf("coldSpike = %g after reset, want 1", spiked.coldSpike)
	}
}
