package sim

// Tests for the lanes' own rules: the fallback that keeps placement
// order-neutral, what Cancel does to a lane's head and to an entry behind it,
// what Pending counts, and that FIFO cancel-the-oldest churn — the warm-pool
// reclaim pattern — costs a lane neither corpses nor memory. Event-for-event
// equivalence with the reference heap is ops_test.go's and FuzzKernelOps's.

import (
	"fmt"
	"math"
	"testing"
)

// TestLaneFallbackKeepsOrder: whatever order keys reach a lane in, events fire
// by (time, priority, schedule order), and exactly the pushes that sort before
// the lane's tail at the time go through the heap.
func TestLaneFallbackKeepsOrder(t *testing.T) {
	type key struct {
		at  Time
		pri int
	}
	for _, tc := range []struct {
		name      string
		keys      []key
		fallbacks uint64
		want      string
	}{
		{"monotone", []key{{1, 0}, {1, 0}, {2, -1}, {2, 0}, {5, 3}}, 0, "0 1 2 3 4"},
		{"decreasing times", []key{{5, 0}, {4, 0}, {3, 0}, {6, 0}, {1, 0}}, 3, "4 2 1 0 3"},
		{"equal times, falling priorities", []key{{2, 1}, {2, 0}, {2, 1}, {2, -1}, {2, 1}}, 2, "3 1 0 2 4"},
	} {
		s := New(1)
		l := s.main.NewLane()
		var got []int
		for i, k := range tc.keys {
			ev := l.Schedule(k.at, k.pri, func() { got = append(got, i) })
			if ev.At() != k.at || ev.Canceled() {
				t.Errorf("%s: handle %d reports At=%v Canceled=%v", tc.name, i, ev.At(), ev.Canceled())
			}
			checkShard(t, s.main)
		}
		if n := s.Pending(); n != len(tc.keys) {
			t.Errorf("%s: Pending = %d, want %d", tc.name, n, len(tc.keys))
		}
		s.Run()
		st := s.main.QueueStats()
		if fmt.Sprint(got) != "["+tc.want+"]" || st.Fallbacks != tc.fallbacks {
			t.Errorf("%s: fired %v with %d fallbacks, want [%s] with %d", tc.name, got, st.Fallbacks, tc.want, tc.fallbacks)
		}
		if st.LanePushes != uint64(len(tc.keys)) || st.LanePops != st.LanePushes-st.Fallbacks || st.HeapPops != st.Fallbacks || st.DeadPops != 0 {
			t.Errorf("%s: queues counted %+v", tc.name, st)
		}
	}
}

// TestLaneCancelRules: canceling a lane's head removes it on the spot,
// canceling an entry behind the head marks it to be skipped, and a handle to
// a fired lane event is stale like any other.
func TestLaneCancelRules(t *testing.T) {
	s := New(1)
	sh := s.main
	l := sh.NewLane()
	fired := ""
	evs := make([]Event, 5)
	for i := range evs {
		evs[i] = l.Schedule(Time(1+i), 0, func() { fired += fmt.Sprint(i) })
	}

	evs[2].Cancel() // interior: stays queued, marked
	checkShard(t, sh)
	if !evs[2].Canceled() || evs[2].At() != 3 || s.Pending() != 5 {
		t.Fatalf("interior cancel: Canceled=%v At=%v Pending=%d; want true, 3, 5", evs[2].Canceled(), evs[2].At(), s.Pending())
	}
	evs[0].Cancel() // head: gone at once, its handle stale
	checkShard(t, sh)
	if evs[0].Canceled() || evs[0].At() != 0 || s.Pending() != 4 {
		t.Fatalf("head cancel: Canceled=%v At=%v Pending=%d; want false, 0, 4", evs[0].Canceled(), evs[0].At(), s.Pending())
	}
	evs[1].Cancel() // the new head: takes the marked entry behind it along
	evs[1].Cancel() // stale by now: a no-op
	checkShard(t, sh)
	if s.Pending() != 2 || evs[2].Canceled() || evs[2].At() != 0 {
		t.Fatalf("cancel of a head with a canceled entry behind it: Pending=%d, the skipped handle reports Canceled=%v At=%v; want 2, false, 0",
			s.Pending(), evs[2].Canceled(), evs[2].At())
	}
	s.RunUntil(4)
	if fired != "3" || s.Pending() != 1 {
		t.Fatalf("fired %q with %d pending after RunUntil(4), want \"3\" and 1", fired, s.Pending())
	}
	evs[3].Cancel() // fired: stale
	if evs[3].Canceled() || evs[3].At() != 0 {
		t.Fatalf("handle of a fired lane event: Canceled=%v At=%v, want false and 0", evs[3].Canceled(), evs[3].At())
	}
	s.Run()
	checkShard(t, sh)
	st := sh.QueueStats()
	if fired != "34" || s.EventsFired() != 2 || s.Pending() != 0 || st.DeadPops != 1 || st.LanePops != 3 || st.HeapPops != 0 || st.HeapPeak != 0 {
		t.Fatalf("fired %q (%d events), %d pending, queues counted %+v", fired, s.EventsFired(), s.Pending(), st)
	}
}

// TestLaneScheduleChecks: Lane.Schedule enforces SchedulePriority's rules.
func TestLaneScheduleChecks(t *testing.T) {
	inf := Time(math.Inf(1))
	for name, schedule := range map[string]func(s *Simulation){
		"past":       func(s *Simulation) { s.main.NewLane().Schedule(4, 0, func() {}) },
		"non-finite": func(s *Simulation) { s.main.NewLane().Schedule(inf, 0, func() {}) },
		"foreign shard": func(s *Simulation) {
			l := s.Shard(1).NewLane()
			s.main.Schedule(6, func() { l.Schedule(7, 0, func() {}) })
			s.Run()
		},
	} {
		s := New(1)
		s.EnsureShards(2)
		s.RunUntil(5)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Lane.Schedule did not panic", name)
				}
			}()
			schedule(s)
		}()
	}
}

// TestPendingCountsEveryQueue: an event left behind when a run stops short
// shows in Pending wherever it waits — the check harnesses make after a run.
func TestPendingCountsEveryQueue(t *testing.T) {
	post := func(s *Simulation) { s.main.Schedule(4, func() { s.main.Post(s.Shard(1), 20, 0, func() {}) }) }
	runUntil10 := func(s *Simulation) { s.RunUntil(10) }
	for name, tc := range map[string]struct{ leave, advance func(s *Simulation) }{
		"heap":       {func(s *Simulation) { s.main.Schedule(20, func() {}) }, runUntil10},
		"lane":       {func(s *Simulation) { s.main.NewLane().Schedule(20, 0, func() {}) }, runUntil10},
		"inbox lane": {post, runUntil10},
		"outbox":     {post, func(s *Simulation) { s.Step() }}, // no barrier after the posting event
	} {
		s := New(1)
		s.EnsureShards(2)
		s.SetLookahead(1)
		tc.leave(s)
		if tc.advance(s); s.Pending() != 1 {
			t.Errorf("%s: Pending = %d with one event left behind, want 1", name, s.Pending())
		}
		if s.Run(); s.Pending() != 0 || s.EventsFired() == 0 {
			t.Errorf("%s: Pending = %d, EventsFired = %d after Run", name, s.Pending(), s.EventsFired())
		}
	}
}

// TestPostsNumberedFromTheShardCounter: delivered posts take the target
// shard's next sequence numbers in (sender shard, send order) order, whatever
// lane they wait in, so among equal (time, priority) keys an event scheduled
// before the barrier fires first, then the posts in that order, then an event
// scheduled after the barrier.
func TestPostsNumberedFromTheShardCounter(t *testing.T) {
	s := New(1)
	s.EnsureShards(4)
	s.SetLookahead(1)
	var got []string
	hit := func(name string) func() { return func() { got = append(got, name) } }
	to := s.Shard(1)
	s.Shard(3).Post(to, 5, 0, hit("s3.a"))
	s.Shard(0).Post(to, 5, 0, hit("s0.a"))
	s.Shard(3).Post(to, 5, 0, hit("s3.b"))
	s.Shard(2).Post(to, 9, 0, hit("s2.far")) // the tail of shard 2's lane ...
	s.Shard(2).Post(to, 5, 0, hit("s2.a"))   // ... so this one falls back to the heap
	to.Schedule(5, hit("local.before"))
	s.RunUntil(1) // one barrier, nothing due
	to.Schedule(5, hit("local.after"))
	s.Run()
	if want := "[local.before s0.a s2.a s3.a s3.b local.after s2.far]"; fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
	if st := to.QueueStats(); st.LanePushes != 5 || st.Fallbacks != 1 || st.LanePops != 4 {
		t.Fatalf("the target's queues counted %+v", st)
	}
}

// laneChurn is cancelChurn's hold model under the steady reuse a warm pool
// sees: churnRing timeouts are pending on l, each set churnHold seconds ahead,
// and every 0.1 s the oldest is canceled and a new one set, so none fires
// before the final drain. It fails the test if the lane ever holds anything
// but the pending timeouts.
func laneChurn(t *testing.T, s *Simulation, l *Lane, ops int) {
	nop := func() {}
	ring := make([]Event, churnRing)
	for i := range ring {
		ring[i] = l.Schedule(s.Now()+churnHold, 0, nop)
	}
	n := 0
	var tick func()
	tick = func() {
		i := n % churnRing
		ring[i].Cancel()
		ring[i] = l.Schedule(s.Now()+churnHold, 0, nop)
		if queued := len(l.q) - l.head; queued != churnRing {
			t.Fatalf("tick %d: %d entries in the lane for %d pending timeouts", n, queued, churnRing)
		}
		if n++; n < ops {
			s.ScheduleAfter(0.1, tick)
		}
	}
	s.ScheduleAfter(0.1, tick)
	s.Run()
}

// TestLaneChurnReusesSlots: under steady cancel-the-oldest churn the lane
// holds exactly the live timeouts, no canceled entry is ever carried, and
// neither the arena nor the lane's buffer grows once the pattern is in steady
// state.
func TestLaneChurnReusesSlots(t *testing.T) {
	s := New(1)
	l := s.main.NewLane()
	laneChurn(t, s, l, 20_000) // 2,000 s: three holds
	warm, buf := s.main.allocs, cap(l.q)
	if limit := uint64(churnRing + 2*arenaChunk); warm > limit {
		t.Fatalf("%d slots carved for %d live events, want <= %d", warm, churnRing, limit)
	}
	if buf > 4*churnRing {
		t.Fatalf("lane buffer holds %d entries for %d queued", buf, churnRing)
	}
	laneChurn(t, s, l, 200_000)
	if s.main.allocs != warm || cap(l.q) != buf {
		t.Fatalf("under steady churn the arena grew from %d to %d slots, the lane buffer from %d to %d entries", warm, s.main.allocs, buf, cap(l.q))
	}
	checkShard(t, s.main)
	if st := s.main.QueueStats(); st.DeadPops != 0 || st.Fallbacks != 0 || st.HeapPeak > 1 || st.LanePops != 2*churnRing {
		t.Fatalf("queues counted %+v: want no dead pops, no fallbacks, only the tick on the heap and the final drains' %d lane pops", st, 2*churnRing)
	}
}
