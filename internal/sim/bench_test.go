package sim

import (
	"fmt"
	"testing"
)

// BenchmarkScheduleRun is the kernel's hottest pattern: a self-scheduling
// event chain (every fired event schedules its successor), which is what a
// training job's epoch loop compiles down to. One op = one scheduled +
// fired event; -benchmem makes the per-event allocation count visible.
func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			s.ScheduleAfter(1, step)
		}
	}
	s.ScheduleAfter(1, step)
	s.Run()
	if int(s.EventsFired()) != b.N {
		b.Fatalf("fired %d, want %d", s.EventsFired(), b.N)
	}
}

// BenchmarkScheduleRunFanout keeps 64 events pending at all times, so each
// op pays real sift work in the priority queue, not just a root pop.
func BenchmarkScheduleRunFanout(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	const width = 64
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			s.ScheduleAfter(1+float64(n%7), step)
		}
	}
	for i := 0; i < width && i < b.N; i++ {
		n++
		s.ScheduleAfter(float64(i%5), step)
	}
	s.Run()
}

// BenchmarkScheduleCancel measures the schedule+cancel round trip: half the
// scheduled events are canceled before they fire (the warm-sandbox expiry
// pattern in internal/faas).
func BenchmarkScheduleCancel(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			ev := s.ScheduleAfter(2, func() {})
			ev.Cancel()
			s.ScheduleAfter(1, step)
		}
	}
	s.ScheduleAfter(1, step)
	s.Run()
}

// cancelChurn is the hold model of a warm pool under reuse: every 0.1 s one
// of churnRing timeouts set churnHold seconds ahead is replaced, and nine
// times in ten the old one is canceled first — the tenth idles out and fires
// — so 1,000 events (the ring plus one idling-out timeout per second of hold)
// are live at any time while nine die per simulated second, each with most of
// its hold still to go.
func cancelChurn(s *Simulation, ops int) {
	nop := func() {}
	ring := make([]Event, churnRing)
	for i := range ring {
		ring[i] = s.ScheduleAfter(churnHold, nop)
	}
	n := 0
	var tick func()
	tick = func() {
		i := n % churnRing
		if n%10 != 0 {
			ring[i].Cancel()
		}
		ring[i] = s.ScheduleAfter(churnHold, nop)
		if n++; n < ops {
			s.ScheduleAfter(0.1, tick)
		}
	}
	s.ScheduleAfter(0.1, tick)
	s.Run()
}

const (
	churnHold = 600 // seconds
	churnRing = 400
)

// BenchmarkCancelChurn: one op = one replaced timeout of the hold model
// (schedule, and nine times in ten a cancel), 1,000 events live. What a
// canceled entry costs while it waits out its hold shows here, not in
// BenchmarkScheduleCancel, whose dead are popped two ticks later.
func BenchmarkCancelChurn(b *testing.B) {
	b.ReportAllocs()
	cancelChurn(New(1), b.N)
}

// BenchmarkScheduleBatch measures bulk burst injection: each op is one
// event of a 256-event batch landing on a queue that already holds 256
// pending events, then firing. Compare BenchmarkScheduleBurstIndividual:
// the same burst pushed one SchedulePriority at a time.
func BenchmarkScheduleBatch(b *testing.B) {
	benchBurst(b, true)
}

// BenchmarkScheduleBurstIndividual is the per-event baseline for
// BenchmarkScheduleBatch.
func BenchmarkScheduleBurstIndividual(b *testing.B) {
	benchBurst(b, false)
}

func benchBurst(b *testing.B, batched bool) {
	b.ReportAllocs()
	const burst = 256
	s := New(1)
	sh := s.Main()
	nop := func() {}
	batch := make([]BatchEvent, burst)
	fired := 0
	for fired < b.N {
		base := sh.Now() + 1
		// A standing backlog so the burst pays realistic sift depth.
		for i := 0; i < burst; i++ {
			sh.Schedule(base+Time(2+float64(i)), nop)
		}
		if batched {
			for i := 0; i < burst; i++ {
				batch[i] = BatchEvent{At: base + Time(float64(i)/burst), Fn: nop}
			}
			sh.ScheduleBatch(batch)
		} else {
			for i := 0; i < burst; i++ {
				sh.SchedulePriority(base+Time(float64(i)/burst), 0, nop)
			}
		}
		fired += 2 * burst
		s.Run()
	}
}

// BenchmarkRunShards drives one cross-shard actor load — 64 self-scheduling
// actors, each posting to its neighbour one and a half lookaheads ahead every
// fourth step — on 1 and on 8 shards at one worker, in windows one lookahead
// wide. One op = one fired event; the gap between the two is what the shard
// count costs a serial run: every window visits every shard, and posts cross
// outboxes and barriers. No cmd/bench workload runs one worker above one
// shard, so this is where that cost shows.
func BenchmarkRunShards(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprint(shards), func(b *testing.B) {
			b.ReportAllocs()
			s := New(1)
			s.EnsureShards(shards)
			s.SetLookahead(1)
			const actors = 64
			left := b.N // events still to schedule, posts included
			spend := func() bool {
				if left == 0 {
					return false
				}
				left--
				return true
			}
			nop := func() {}
			for a := 0; a < actors && spend(); a++ {
				sh, to := s.Shard(a%shards), s.Shard((a+1)%shards)
				delay, k := 0.25+float64(a%7)/16, 0
				var step func()
				step = func() {
					if k++; k%4 == 0 && spend() {
						sh.Post(to, sh.Now()+1.5, a, nop)
					}
					if spend() {
						sh.SchedulePriority(sh.Now()+Time(delay), a, step)
					}
				}
				sh.SchedulePriority(Time(a)/actors, a, step)
			}
			s.Run()
			if int(s.EventsFired()) != b.N {
				b.Fatalf("fired %d, want %d", s.EventsFired(), b.N)
			}
		})
	}
}

// BenchmarkShardedPost measures the cross-shard mailbox round trip: every
// op posts an event to the neighbouring shard one lookahead ahead, so the
// kernel pays outbox buffering, a window barrier and the flush on each hop.
func BenchmarkShardedPost(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	const shards = 2
	s.EnsureShards(shards)
	s.SetLookahead(1)
	n := 0
	var hop0, hop1 func()
	hop0 = func() { // runs on shard 0, posts the next hop to shard 1
		n++
		if n < b.N {
			sh := s.Shard(0)
			sh.Post(s.Shard(1), sh.Now()+1, 0, hop1)
		}
	}
	hop1 = func() { // runs on shard 1, posts back to shard 0
		n++
		if n < b.N {
			sh := s.Shard(1)
			sh.Post(s.Shard(0), sh.Now()+1, 0, hop0)
		}
	}
	s.Shard(0).ScheduleAfter(1, hop0)
	s.Run()
}

// BenchmarkLaneScheduleRun is BenchmarkScheduleRun on a lane: the
// self-scheduling chain's successor is pushed to, and popped from, a FIFO
// instead of the heap. One op = one scheduled + fired event.
func BenchmarkLaneScheduleRun(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	l := s.Main().NewLane()
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			l.Schedule(s.Now()+1, 0, step)
		}
	}
	l.Schedule(1, 0, step)
	s.Run()
	if int(s.EventsFired()) != b.N {
		b.Fatalf("fired %d, want %d", s.EventsFired(), b.N)
	}
}

// BenchmarkPostDeliver measures the mailbox's delivery side: every sender
// shard posts to one target shard once per simulated second, one lookahead
// ahead, so the target's events all arrive through its per-sender inbox lanes.
// One op = one post buffered, delivered at the barrier and fired.
func BenchmarkPostDeliver(b *testing.B) {
	for _, senders := range []int{1, 8} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) {
			b.ReportAllocs()
			s := New(1)
			s.EnsureShards(senders + 1)
			s.SetLookahead(1)
			to := s.Shard(senders)
			nop := func() {}
			n := 0
			for i := 0; i < senders; i++ {
				sh := s.Shard(i)
				var tick func()
				tick = func() {
					if n++; n <= b.N {
						sh.Post(to, sh.Now()+1, i, nop)
						sh.ScheduleAfter(1, tick)
					}
				}
				sh.ScheduleAfter(1, tick)
			}
			s.Run()
			if st := to.QueueStats(); int(st.LanePops) != b.N || st.Fallbacks != 0 {
				b.Fatalf("the target's queues counted %+v, want %d lane pops and no fallback", st, b.N)
			}
		})
	}
}

// BenchmarkLanePick measures finding the earliest of many non-empty lanes on
// one shard (one lane per tenant platform's expiry queue is the case that has
// many). The same 2,048 events are pending at either lane count — so the
// working set is the same — spread over lanes that never empty: each fire
// schedules its lane's next tail a constant delay ahead. One op = one fired
// event; the cost per op may grow with the logarithm of the lane count, not
// with the count.
func BenchmarkLanePick(b *testing.B) {
	const pending = 2048
	for _, lanes := range []int{4, 1024} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			b.ReportAllocs()
			s := New(1)
			sh := s.Main()
			depth := pending / lanes
			n := 0
			for i := 0; i < lanes; i++ {
				l := sh.NewLane()
				var step func()
				step = func() {
					if n++; n+pending <= b.N {
						l.Schedule(sh.Now()+Time(depth), i, step)
					}
				}
				for j := 0; j < depth; j++ {
					l.Schedule(Time(1+j)+Time(i)/Time(lanes), i, step)
				}
			}
			b.ResetTimer()
			s.Run()
			if st := sh.QueueStats(); st.HeapPops != 0 || st.Fallbacks != 0 {
				b.Fatalf("queues counted %+v: every event should have waited in a lane", st)
			}
		})
	}
}

// benchSink keeps the straggler benchmark's results live.
var benchSink float64

// BenchmarkMaxLogNormal times one BSP epoch's straggler draw at the paper
// workload's mean group size (25) and at the largest grid group size,
// against the reference loop (one Exp per function). One op = one epoch.
func BenchmarkMaxLogNormal(b *testing.B) {
	for _, n := range []int{25, 200} {
		b.Run(fmt.Sprintf("n=%d/fast", n), func(b *testing.B) {
			r := NewRand(1)
			for i := 0; i < b.N; i++ {
				benchSink = r.MaxLogNormal(n, 0.05)
			}
		})
		b.Run(fmt.Sprintf("n=%d/ref", n), func(b *testing.B) {
			r := NewRand(1)
			for i := 0; i < b.N; i++ {
				benchSink = refGroundTruth(r, n, 0.05)
			}
		})
	}
}

// BenchmarkNormFloat64s fills 256 deviates in one batch, against 256
// NormFloat64 calls. One op = 256 deviates.
func BenchmarkNormFloat64s(b *testing.B) {
	dst := make([]float64, 256)
	b.Run("batch", func(b *testing.B) {
		r := NewRand(1)
		for i := 0; i < b.N; i++ {
			r.NormFloat64s(dst)
		}
	})
	b.Run("ref", func(b *testing.B) {
		r := NewRand(1)
		for i := 0; i < b.N; i++ {
			refNormFloat64s(r, dst)
		}
	})
}
