package faas

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// kernelReapFloor mirrors internal/sim's (unexported) reap floor: a shard
// carries at most max(live, floor) canceled entries past any Cancel.
const kernelReapFloor = 64

// TestWarmChurnKeepsKernelQueueBounded: every warm Invoke1 cancels a reclaim
// with nearly all of its ten minutes to go. Those used to sit in the kernel's
// heap until their time — one per cycle, 60,000 at this cycle rate — and now
// leave once they outnumber the live ones, so the queue stays within twice
// the warm pool plus the floor for the whole run.
func TestWarmChurnKeepsKernelQueueBounded(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)
	const group = 3
	sizes := []int{512, 1024}
	peak := 0
	for cycle := 0; cycle < 200_000; cycle++ {
		memMB := sizes[cycle%len(sizes)]
		for i := 0; i < group; i++ {
			if _, err := p.Invoke1(memMB); err != nil {
				t.Fatal(err)
			}
		}
		p.ReleaseGroup(group, memMB, 0.005)
		s.RunUntil(s.Now() + 0.01) // 2,000 s over the run: more than three TTLs
		peak = max(peak, s.Pending())
		if bound := 2*p.WarmTotal() + kernelReapFloor; s.Pending() > bound {
			t.Fatalf("cycle %d: %d events pending for %d warm sandboxes, want <= %d", cycle, s.Pending(), p.WarmTotal(), bound)
		}
	}
	if p.WarmTotal() != group*len(sizes) || p.Meter().Invocations != 200_000*group {
		t.Fatalf("warm=%d invocations=%d", p.WarmTotal(), p.Meter().Invocations)
	}
	t.Logf("peak pending events: %d", peak)
}

// TestFiredReclaimIsQueueHead drives every path that adds, consumes or
// evicts warm sandboxes — Prewarm, InvokeGroup, ReleaseGroup, ReclaimWarm,
// DropWarm, and WarmTTL lowered mid-run — with the clock advancing so that
// reclaims fire in between. reclaimHead panics if a fired reclaim is not its
// queue's head; beyond that, every warm sandbox must own exactly one pending
// reclaim at every step, and each sandbox must leave the pool exactly once.
func TestFiredReclaimIsQueueHead(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)
	o := obs.New()
	p.SetObserver(o)
	rng := sim.NewRand(11)
	sizes := []int{512, 1024, 1769}
	added, consumed, evicted, inFlight := 0, 0, 0, map[int]int{}
	for step := 0; step < 5000; step++ {
		memMB := sizes[rng.Intn(len(sizes))]
		switch r := rng.Intn(100); {
		case r < 30:
			n := 1 + rng.Intn(4)
			warm := min(n, p.WarmCount(memMB))
			if _, err := p.InvokeGroup(n, memMB); err != nil {
				t.Fatal(err)
			}
			consumed += warm
			inFlight[memMB] += n
		case r < 60:
			if n := inFlight[memMB]; n > 0 {
				n = 1 + rng.Intn(n)
				p.ReleaseGroup(n, memMB, 1)
				inFlight[memMB] -= n
				added += n
			}
		case r < 70:
			n := 1 + rng.Intn(3)
			if err := p.Prewarm(n, memMB); err != nil {
				t.Fatal(err)
			}
			added += n
		case r < 78:
			evicted += p.ReclaimWarm(1 + rng.Intn(3))
		case r < 81:
			evicted += p.WarmCount(memMB)
			p.DropWarm(memMB)
		case r < 83:
			// Lowered TTL: later reclaims clamp behind the pending ones.
			p.WarmTTL = max(50, p.WarmTTL*0.8)
		default:
			s.RunUntil(s.Now() + sim.Time(rng.Float64()*40))
		}
		for _, m := range sizes {
			if p.PendingExpiries(m) != p.WarmCount(m) {
				t.Fatalf("step %d: %d MB has %d warm sandboxes and %d pending reclaims", step, m, p.WarmCount(m), p.PendingExpiries(m))
			}
		}
	}
	s.Run()
	expired := int(o.Stats().Counter("faas.warm_expired"))
	if p.WarmTotal() != 0 || s.Pending() != 0 {
		t.Fatalf("after the last TTL: %d warm, %d events pending", p.WarmTotal(), s.Pending())
	}
	if expired == 0 || evicted == 0 || added != consumed+evicted+expired {
		t.Fatalf("%d sandboxes entered the pool; %d consumed + %d evicted + %d expired left it", added, consumed, evicted, expired)
	}
}

// TestReclaimOffHeadPanics: a reclaim popped without being canceled breaks
// the head invariant, and the fired reclaim says so instead of searching.
func TestReclaimOffHeadPanics(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)
	if err := p.Prewarm(1, 512); err != nil {
		t.Fatal(err)
	}
	p.expiry[512].popHead() // not canceled: it will fire on an empty queue
	defer func() {
		if recover() == nil {
			t.Fatal("a reclaim fired off the queue head without a panic")
		}
	}()
	s.Run()
}
