package faas

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestWarmChurnKeepsKernelQueueBounded: every warm InvokeGroup(1) takes a sandbox
// whose batch's reclaim has nearly all of its ten minutes to go. Canceled
// reclaims used to sit in the kernel's heap until their time — one per
// cycle, 60,000 at this cycle rate — then until they outnumbered the live
// ones; on the pools' lanes a batch's reclaim is canceled only once the batch
// is empty, when it is the oldest of its size and leaves at once, so the
// kernel holds exactly one event per live release batch for the whole run,
// and its heap none.
func TestWarmChurnKeepsKernelQueueBounded(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)
	const group = 3
	sizes := []int{512, 1024}
	for cycle := 0; cycle < 200_000; cycle++ {
		memMB := sizes[cycle%len(sizes)]
		for i := 0; i < group; i++ {
			if _, err := p.InvokeGroup(1, memMB); err != nil {
				t.Fatal(err)
			}
		}
		p.ReleaseGroup(group, memMB, 0.005)
		s.RunUntil(s.Now() + 0.01) // 2,000 s over the run: more than three TTLs
		checkBatches(t, s, p, fmt.Sprint("cycle ", cycle))
	}
	if p.WarmTotal() != group*len(sizes) || s.Pending() != len(sizes) || p.Meter().Invocations != 200_000*group {
		t.Fatalf("warm=%d in %d batches, invocations=%d", p.WarmTotal(), s.Pending(), p.Meter().Invocations)
	}
	if st := s.Main().QueueStats(); st.HeapPeak != 0 || st.Fallbacks != 0 || st.DeadPops != 0 {
		t.Fatalf("the kernel's queues counted %+v: want every reclaim on a lane and none popped dead", st)
	}
}

// TestFiredReclaimIsQueueHead drives every path that adds, consumes or
// evicts warm sandboxes — InvokeGroup, ReleaseGroup, ReclaimWarm, and kills
// beside them — with the clock advancing so that reclaims fire in between.
// Every live release batch must own exactly one pending reclaim at every
// step — the kernel holding exactly those events, all of them on the sizes'
// lanes, so that every reclaim that fires is its lane's head — and each
// sandbox must leave the pool exactly once.
func TestFiredReclaimIsQueueHead(t *testing.T) {
	s := sim.New(1)
	p := NewDefault(s)
	o := obs.New()
	p.SetObserver(o)
	rng := sim.NewRand(11)
	sizes := []int{512, 1024, 1769}
	added, consumed, evicted, releases, inFlight := 0, 0, 0, 0, map[int]int{}
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
				releases++
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
		if warm != p.WarmTotal() {
			t.Fatalf("step %d: %d warm sandboxes by size, WarmTotal %d", step, warm, p.WarmTotal())
		}
		checkBatches(t, s, p, fmt.Sprint("step ", step))
	}
	s.Run()
	expired := int(o.Stats().Counter("faas.warm_expired"))
	if p.WarmTotal() != 0 || s.Pending() != 0 {
		t.Fatalf("after the last TTL: %d warm, %d events pending", p.WarmTotal(), s.Pending())
	}
	if expired == 0 || evicted == 0 || added != consumed+evicted+expired {
		t.Fatalf("%d sandboxes entered the pool; %d consumed + %d evicted + %d expired left it", added, consumed, evicted, expired)
	}
	fired := s.EventsFired()
	if st := s.Main().QueueStats(); st.LanePushes != uint64(releases) || st.LanePops != fired || fired > uint64(releases) ||
		st.Fallbacks != 0 || st.DeadPops != 0 || st.HeapPeak != 0 {
		t.Fatalf("the kernel's queues counted %+v for %d reclaims set, one per release, and %d fired: want all of them on lanes, none through the heap, none popped dead",
			st, releases, fired)
	}
}
