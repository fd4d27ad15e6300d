package faas

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestWarmChurnKeepsKernelQueueBounded: every warm Invoke1 cancels a reclaim
// with nearly all of its ten minutes to go. Those used to sit in the kernel's
// heap until their time — one per cycle, 60,000 at this cycle rate — then
// until they outnumbered the live ones; on the expiry queues' lanes a canceled
// reclaim is the oldest of its size and leaves at once, so the kernel holds
// exactly one event per warm sandbox for the whole run, and its heap none.
func TestWarmChurnKeepsKernelQueueBounded(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)
	const group = 3
	sizes := []int{512, 1024}
	for cycle := 0; cycle < 200_000; cycle++ {
		memMB := sizes[cycle%len(sizes)]
		for i := 0; i < group; i++ {
			if _, err := p.Invoke1(memMB); err != nil {
				t.Fatal(err)
			}
		}
		p.ReleaseGroup(group, memMB, 0.005)
		s.RunUntil(s.Now() + 0.01) // 2,000 s over the run: more than three TTLs
		if s.Pending() != p.WarmTotal() {
			t.Fatalf("cycle %d: %d events pending for %d warm sandboxes", cycle, s.Pending(), p.WarmTotal())
		}
	}
	if p.WarmTotal() != group*len(sizes) || p.Meter().Invocations != 200_000*group {
		t.Fatalf("warm=%d invocations=%d", p.WarmTotal(), p.Meter().Invocations)
	}
	if st := s.Main().QueueStats(); st.HeapPeak != 0 || st.Fallbacks != 0 || st.DeadPops != 0 {
		t.Fatalf("the kernel's queues counted %+v: want every reclaim on a lane and none popped dead", st)
	}
}

// TestFiredReclaimIsQueueHead drives every path that adds, consumes or
// evicts warm sandboxes — InvokeGroup, ReleaseGroup, ReclaimWarm, and kills
// beside them — with the clock advancing so that reclaims fire in between.
// Every warm sandbox must own exactly one pending reclaim at every step — the
// kernel holding exactly those events, all of them on the sizes' lanes, so
// that every reclaim that fires is its lane's head — and each sandbox must
// leave the pool exactly once.
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
		case r < 68:
			evicted += p.ReclaimWarm(1 + rng.Intn(3))
		case r < 71:
			// Killed sandboxes vanish without touching the warm pool.
			for killed := p.KillSandboxes(1 + rng.Intn(3)); killed > 0; killed-- {
				for _, m := range sizes {
					if inFlight[m] > 0 {
						inFlight[m]--
						break
					}
				}
			}
		default:
			s.RunUntil(s.Now() + sim.Time(rng.Float64()*40))
		}
		warm := 0
		for _, m := range sizes {
			warm += p.WarmCount(m)
		}
		if warm != p.WarmTotal() || warm != s.Pending() {
			t.Fatalf("step %d: %d warm sandboxes by size, WarmTotal %d, %d events in the kernel", step, warm, p.WarmTotal(), s.Pending())
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
	if st := s.Main().QueueStats(); st.LanePushes != uint64(added) || st.LanePops != uint64(expired) || st.Fallbacks != 0 || st.DeadPops != 0 || st.HeapPeak != 0 {
		t.Fatalf("the kernel's queues counted %+v for %d reclaims set and %d fired: want all of them on lanes, none through the heap, none popped dead",
			st, added, expired)
	}
}
