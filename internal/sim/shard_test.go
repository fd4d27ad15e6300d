package sim

// Tests for the sharded kernel: the generation-counter fix for the
// free-list reuse hazard, the Post mailbox contract, and the determinism
// matrix — a randomized cross-shard workload must produce event-for-event
// identical traces at every shard count and worker count, and match the
// single-queue container/heap reference.

import (
	"fmt"
	"math"
	"testing"
)

// TestStaleCancelIsNoOp is the regression test for the free-list reuse
// hazard: before the generation counter, an Event pointer held past its
// firing aliased whatever event had reused the recycled slot, so a stale
// Cancel silently canceled an unrelated event. The handle's generation must
// make that Cancel a no-op.
func TestStaleCancelIsNoOp(t *testing.T) {
	s := New(1)
	stale := s.Schedule(1, func() {})
	s.RunUntil(2) // fires and recycles the event behind `stale`

	ran := false
	fresh := s.Schedule(3, func() { ran = true }) // reuses the recycled slot
	stale.Cancel()                                // must not touch `fresh`
	if fresh.Canceled() {
		t.Fatal("stale Cancel canceled an unrelated event that reused the slot")
	}
	if stale.Canceled() {
		t.Fatal("stale handle reports Canceled after its event already fired")
	}
	if stale.At() != 0 {
		t.Fatalf("stale handle At() = %v, want 0", stale.At())
	}
	s.Run()
	if !ran {
		t.Fatal("event canceled through a stale handle to a recycled slot")
	}
}

// TestZeroEventIsInert: the zero handle supports Cancel/Canceled/At as
// no-ops, so callers can keep Event fields without a validity flag.
func TestZeroEventIsInert(t *testing.T) {
	var e Event
	e.Cancel()
	if e.Canceled() || e.At() != 0 {
		t.Fatalf("zero Event not inert: Canceled=%v At=%v", e.Canceled(), e.At())
	}
}

// TestCancelDuringOwnFireIsNoOp preserves the historical semantics: an
// event canceling itself from inside its own callback has no effect (it
// already fired) and must not poison the recycled slot.
func TestCancelDuringOwnFireIsNoOp(t *testing.T) {
	s := New(1)
	var self Event
	self = s.Schedule(1, func() { self.Cancel() })
	ran := false
	s.Run()
	// The slot is reused by the next schedule; it must arrive uncanceled.
	next := s.Schedule(2, func() { ran = true })
	if next.Canceled() {
		t.Fatal("slot reused from a self-canceled event came back canceled")
	}
	s.Run()
	if !ran {
		t.Fatal("event on a reused slot did not run")
	}
	if got := s.EventsFired(); got != 2 {
		t.Fatalf("EventsFired = %d, want 2", got)
	}
}

// TestShardScheduleAndMerge: events on several shards fire in global
// (time, priority, sequence, shard) order under sequential execution.
func TestShardScheduleAndMerge(t *testing.T) {
	s := New(1)
	s.EnsureShards(3)
	var order []string
	for i := 0; i < 3; i++ {
		i := i
		sh := s.Shard(i)
		sh.Schedule(Time(3-i), func() { order = append(order, fmt.Sprintf("a%d", i)) })
		sh.SchedulePriority(5, i, func() { order = append(order, fmt.Sprintf("b%d", i)) })
	}
	s.Run()
	want := []string{"a2", "a1", "a0", "b0", "b1", "b2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.EventsFired() != 6 {
		t.Fatalf("EventsFired = %d, want 6", s.EventsFired())
	}
}

// TestRunUntilClampsEveryShard: a finite limit moves every shard clock
// forward to the limit, and never backwards.
func TestRunUntilClampsEveryShard(t *testing.T) {
	s := New(1)
	s.EnsureShards(2)
	s.Shard(1).Schedule(20, func() {})
	s.RunUntil(10)
	if got := s.Shard(1).Now(); got != 10 {
		t.Fatalf("shard 1 clock = %v, want 10", got)
	}
	if got := s.Now(); got != 10 {
		t.Fatalf("main clock = %v, want 10", got)
	}
	s.RunUntil(7)
	if got := s.Shard(1).Now(); got != 10 {
		t.Fatalf("RunUntil moved shard 1 clock backwards: %v", got)
	}
	s.Run()
	if got := s.Shard(1).Now(); got != 20 {
		t.Fatalf("shard 1 clock = %v after Run, want 20", got)
	}
}

// TestPostContract covers the mailbox rules: Post panics without a finite
// lookahead, panics when the target time violates the lookahead gap, and
// otherwise delivers at a window barrier in (time, priority) order.
func TestPostContract(t *testing.T) {
	t.Run("requires finite lookahead", func(t *testing.T) {
		s := New(1)
		s.EnsureShards(2)
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic: Post with infinite lookahead")
			}
		}()
		s.Shard(0).Post(s.Shard(1), 10, 0, func() {})
	})
	t.Run("enforces lookahead gap", func(t *testing.T) {
		s := New(1)
		s.EnsureShards(2)
		s.SetLookahead(5)
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic: Post inside the lookahead gap")
			}
		}()
		s.Shard(0).Post(s.Shard(1), 4.9, 0, func() {})
	})
	t.Run("delivers across shards", func(t *testing.T) {
		s := New(1)
		s.EnsureShards(2)
		s.SetLookahead(1)
		var got []string
		a, b := s.Shard(0), s.Shard(1)
		a.Schedule(1, func() {
			got = append(got, "a@1")
			a.Post(b, 2.5, 0, func() { got = append(got, fmt.Sprintf("b@%v", b.Now())) })
		})
		b.Schedule(2, func() { got = append(got, "b@2") })
		s.Run()
		want := []string{"a@1", "b@2", "b@t=2.500s"}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("got %v, want %v", got, want)
		}
		if s.Pending() != 0 {
			t.Fatalf("Pending = %d after Run, want 0", s.Pending())
		}
	})
}

// TestCrossShardSchedulePanics: an event on one shard scheduling directly
// onto another shard is an ownership violation the sequential path detects.
func TestCrossShardSchedulePanics(t *testing.T) {
	s := New(1)
	s.EnsureShards(2)
	s.SetLookahead(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: cross-shard Schedule instead of Post")
		}
	}()
	s.Shard(0).Schedule(1, func() {
		s.Shard(1).Schedule(2, func() {})
	})
	s.Run()
}

// TestCrossShardPostOwnershipPanics: Post must go through the outbox of
// the shard whose event is executing — routing a post through another
// shard's outbox would race on it in parallel windows and would check the
// lookahead against the wrong clock.
func TestCrossShardPostOwnershipPanics(t *testing.T) {
	s := New(1)
	s.EnsureShards(2)
	s.SetLookahead(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: post through a foreign shard's outbox")
		}
	}()
	s.Shard(0).Schedule(1, func() {
		// The event runs on shard 0 but posts through shard 1's outbox.
		s.Shard(1).Post(s.Shard(0), 5, 0, func() {})
	})
	s.Run()
}

// TestShardFreeListsStayZeroAlloc: the per-shard arenas recycle just like
// the single-queue kernel's, including for posted events.
func TestShardFreeListsStayZeroAlloc(t *testing.T) {
	s := New(1)
	s.EnsureShards(2)
	s.SetLookahead(1)
	a, b := s.Shard(0), s.Shard(1)
	n := 0
	var ping func()
	ping = func() {
		n++
		if n < 100000 {
			// Alternate a local chain step and a cross-shard post.
			a.ScheduleAfter(0.5, func() {})
			a.Post(b, a.Now()+1, 0, func() {})
			a.ScheduleAfter(1, ping)
		}
	}
	a.ScheduleAfter(1, ping)
	s.Run()
	if a.allocs > 3*arenaChunk || b.allocs > 3*arenaChunk {
		t.Fatalf("shard arenas not recycling: allocs a=%d b=%d, want <= %d each", a.allocs, b.allocs, 3*arenaChunk)
	}
}

// TestKernelSteadyStateZeroAlloc is the kernel's share of the zero-allocation
// contract. Once heaps, lanes, outboxes and arenas have reached their
// high-water marks, a RunUntil window that takes every scheduling entry point
// — Schedule, ScheduleAfter, SchedulePriority, ScheduleBatch on both its sift
// and its heapify branch, Lane.Schedule, Post from three sender shards into
// one target, Cancel on the heap, of a lane's head and of an entry behind it —
// does not touch the Go heap.
func TestKernelSteadyStateZeroAlloc(t *testing.T) {
	s := New(1)
	s.EnsureShards(4)
	s.SetLookahead(1)
	a, b := s.Shard(0), s.Shard(1)
	nop := func() {}
	batch, echoes := make([]BatchEvent, 4), make([]BatchEvent, 4)
	// Shard 1's heap stays short, so its batches take the heapify branch.
	echo := func() {
		for i := range echoes {
			echoes[i] = BatchEvent{At: b.Now() + 0.25, Pri: i, Fn: nop}
		}
		b.ScheduleBatch(echoes)
	}
	short, hold := a.NewLane(), a.NewLane()
	var held [8]Event // the hold lane's pending timeouts, replaced oldest first
	n := 0
	var tick func()
	tick = func() {
		now := a.Now()
		a.Schedule(now+0.25, nop)
		a.SchedulePriority(now+0.5, -1, nop)
		short.Schedule(now+0.5, 0, nop)
		// A hold canceled long before it is due, like the reclaim of a warm
		// sandbox that is reused: on the heap, the dead entry waits out its hold
		// (600 of them keep this shard's batches on ScheduleBatch's sift branch);
		// on a lane, the oldest is the head and goes at once, and the one
		// canceled right away waits behind the head to be skipped.
		a.ScheduleAfter(600, nop).Cancel()
		held[n%len(held)].Cancel()
		held[n%len(held)] = hold.Schedule(now+600, 0, nop)
		hold.Schedule(now+600, 0, nop).Cancel()
		n++
		a.Post(b, now+1, 0, echo)
		for i := range batch {
			batch[i] = BatchEvent{At: now + 0.75, Pri: i, Fn: nop}
		}
		a.ScheduleBatch(batch)
		a.ScheduleAfter(1, tick)
	}
	a.ScheduleAfter(1, tick)
	for i, sh := range []*Shard{s.Shard(2), s.Shard(3)} {
		var relay func()
		relay = func() {
			sh.Post(b, sh.Now()+1, 1+i, echo)
			sh.ScheduleAfter(1, relay)
		}
		sh.ScheduleAfter(1, relay)
	}
	s.RunUntil(1000) // warm-up: past the first hold, so canceled entries pop as fast as they arrive
	buffers := func() (n int) {
		for _, l := range append(append([]*Lane{short, hold}, a.inbox...), b.inbox...) {
			if l != nil {
				n += cap(l.q)
			}
		}
		return n
	}
	fired, slots, lanes := s.EventsFired(), a.allocs+b.allocs, buffers()
	if n := testing.AllocsPerRun(100, func() { s.RunUntil(s.Now() + 10) }); n != 0 {
		t.Errorf("a steady-state kernel window allocates %.1f times, want 0", n)
	}
	if n := s.EventsFired() - fired; n < 100*10*16 { // 100 windows of 10 s, 16 events a second
		t.Errorf("only %d events fired in the measured windows; the gate measured an idle kernel", n)
	}
	if a.allocs+b.allocs != slots || buffers() != lanes {
		t.Errorf("in steady state the arenas grew from %d to %d slots, the lane buffers from %d to %d entries", slots, a.allocs+b.allocs, lanes, buffers())
	}
	if st, in := a.QueueStats(), b.QueueStats(); st.DeadPops == 0 || in.LanePops == 0 || in.Fallbacks != 0 || len(b.inbox) != 4 {
		t.Errorf("the gate missed a path: shard 0 counted %+v, shard 1 %+v with %d inbox lanes", st, in, len(b.inbox))
	}
}

// --- randomized cross-shard workload, cross-checked against the reference ---

// actorWorld abstracts "which kernel runs the workload" so the exact same
// actor logic drives the sharded kernel (at any shard/worker count) and the
// single-queue container/heap reference. Actors follow the shard ownership
// rules: an actor only schedules onto itself, sends to other actors go
// through post with at least actorLookahead of delay, and every event
// carries a globally unique priority so the merge order is fully determined
// by (time, priority) — which is what makes the firing sequence invariant
// across shard layouts.
type actorWorld interface {
	scheduleSelf(actor int, at Time, pri int, fn func())
	// scheduleCancelable is scheduleSelf returning the event's Cancel, to
	// be called only from the actor's own events.
	scheduleCancelable(actor int, at Time, pri int, fn func()) (cancel func())
	post(from, to int, at Time, pri int, fn func())
	now(actor int) Time
	run()
	fired() uint64
}

const actorLookahead = 2.0

type shardedWorld struct {
	s      *Simulation
	shards int
	// For scheduleCancelable, whose cancels check their shard's invariants
	// against t.
	t testing.TB
	// Every other cancelable event of an actor goes through the actor's lane,
	// sorted or not; the reference world has no lanes.
	lanes []*Lane
	nth   []int
}

func newShardedWorld(seed uint64, shards, workers int) *shardedWorld {
	s := New(seed)
	s.EnsureShards(shards)
	s.SetLookahead(actorLookahead)
	s.SetWorkers(workers)
	return &shardedWorld{s: s, shards: shards, lanes: make([]*Lane, maxActors), nth: make([]int, maxActors)}
}

const maxActors = 16

// lane returns actor's lane, or nil for the heap, alternating per actor. An
// actor's elements are only touched from the actor's own shard.
func (w *shardedWorld) lane(actor int) *Lane {
	if w.lanes[actor] == nil {
		w.lanes[actor] = w.shardOf(actor).NewLane()
	}
	if w.nth[actor]++; w.nth[actor]%2 == 0 {
		return nil
	}
	return w.lanes[actor]
}

func (w *shardedWorld) shardOf(actor int) *Shard { return w.s.Shard(actor % w.shards) }
func (w *shardedWorld) scheduleSelf(actor int, at Time, pri int, fn func()) {
	w.shardOf(actor).SchedulePriority(at, pri, fn)
}
func (w *shardedWorld) scheduleCancelable(actor int, at Time, pri int, fn func()) func() {
	sh := w.shardOf(actor)
	var ev Event
	if l := w.lane(actor); l != nil {
		ev = l.Schedule(at, pri, fn)
	} else {
		ev = sh.SchedulePriority(at, pri, fn)
	}
	return func() {
		ev.Cancel()
		checkShard(w.t, sh)
	}
}
func (w *shardedWorld) post(from, to int, at Time, pri int, fn func()) {
	w.shardOf(from).Post(w.shardOf(to), at, pri, fn)
}
func (w *shardedWorld) now(actor int) Time { return w.shardOf(actor).Now() }
func (w *shardedWorld) run()               { w.s.Run() }
func (w *shardedWorld) fired() uint64      { return w.s.EventsFired() }

// refWorld runs the same workload on the test-only container/heap kernel:
// posts are plain schedules (a single queue has no barriers to wait for).
type refWorld struct{ s *refSim }

func (w *refWorld) scheduleSelf(actor int, at Time, pri int, fn func()) { w.s.schedule(at, pri, fn) }
func (w *refWorld) scheduleCancelable(_ int, at Time, pri int, fn func()) func() {
	e := w.s.schedule(at, pri, fn)
	return func() { w.s.cancel(e) }
}
func (w *refWorld) post(_, _ int, at Time, pri int, fn func()) { w.s.schedule(at, pri, fn) }
func (w *refWorld) now(int) Time                               { return w.s.now }
func (w *refWorld) run()                                       { w.s.run() }
func (w *refWorld) fired() uint64                              { return w.s.fired }

// driveActors runs a randomized actor storm: each actor advances a local
// chain (drawing from its own stream, so draws are independent of execution
// interleaving) and periodically fires a message at a neighbour, who
// schedules a follow-up. Returns one firing trace per actor.
func driveActors(w actorWorld, seed uint64, actors int) [][]string {
	rngs := make([]*Rand, actors)
	traces := make([][]string, actors)
	for a := range rngs {
		rngs[a] = NewRand(seed ^ uint64(a*7919+1))
	}
	record := func(a int, kind string, k int) {
		traces[a] = append(traces[a], fmt.Sprintf("%s%d@%.9f", kind, k, float64(w.now(a))))
	}
	var step func(a, k int)
	onMsg := func(to, k int) {
		record(to, "m", k)
		if k%3 == 0 {
			// A message can spawn local follow-up work on the receiver.
			w.scheduleSelf(to, w.now(to)+Time(rngs[to].Float64()), to*1_000_000+900_000+k, func() { record(to, "f", k) })
		}
	}
	step = func(a, k int) {
		record(a, "s", k)
		if k >= 60 {
			return
		}
		d := 0.2 + rngs[a].Float64()
		w.scheduleSelf(a, w.now(a)+Time(d), a*1_000_000+k+1, func() { step(a, k+1) })
		if k%5 == 2 {
			to := (a + 1 + k%3) % actors
			at := w.now(a) + Time(actorLookahead+rngs[a].Float64())
			w.post(a, to, at, 10_000_000+to*100_000+a*1_000+k, func() { onMsg(to, k) })
		}
	}
	for a := 0; a < actors; a++ {
		a := a
		w.scheduleSelf(a, Time(rngs[a].Float64()), a*1_000_000, func() { step(a, 0) })
	}
	w.run()
	return traces
}

// TestCrossShardWorkloadMatrix is the kernel-level determinism matrix: the
// randomized actor workload must produce event-for-event identical
// per-actor traces — and the same global event count — at shard counts
// {1, 2, 8} x workers {1, 8}, all equal to the single-queue reference.
func TestCrossShardWorkloadMatrix(t *testing.T) {
	const actors = 9
	for seed := uint64(1); seed <= 3; seed++ {
		ref := driveActors(&refWorld{s: &refSim{}}, seed, actors)
		refFired := func() uint64 {
			w := &refWorld{s: &refSim{}}
			driveActors(w, seed, actors)
			return w.fired()
		}()
		for _, shards := range []int{1, 2, 8} {
			for _, workers := range []int{1, 8} {
				w := newShardedWorld(seed, shards, workers)
				got := driveActors(w, seed, actors)
				for a := range ref {
					if len(got[a]) != len(ref[a]) {
						t.Fatalf("seed %d shards=%d workers=%d: actor %d fired %d events, reference %d",
							seed, shards, workers, a, len(got[a]), len(ref[a]))
					}
					for i := range ref[a] {
						if got[a][i] != ref[a][i] {
							t.Fatalf("seed %d shards=%d workers=%d: actor %d trace diverges at %d: %q vs %q",
								seed, shards, workers, a, i, got[a][i], ref[a][i])
						}
					}
				}
				if w.fired() != refFired {
					t.Fatalf("seed %d shards=%d workers=%d: fired %d, reference %d", seed, shards, workers, w.fired(), refFired)
				}
			}
		}
	}
}

// TestLookaheadWindowsMatchSingleWindow: the same single-shard workload run
// with a tiny finite lookahead (thousands of windows) and with the default
// infinite lookahead (one window) must fire identically — windowing is pure
// execution policy, never semantics.
func TestLookaheadWindowsMatchSingleWindow(t *testing.T) {
	run := func(lookahead float64) []string {
		s := New(3)
		if lookahead > 0 {
			s.SetLookahead(lookahead)
		}
		var tr []string
		driveWorkloadInto(s, &tr)
		return tr
	}
	base := run(0)
	for _, L := range []float64{0.25, 1, 7.5} {
		got := run(L)
		if len(got) != len(base) {
			t.Fatalf("L=%g: %d events vs %d", L, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("L=%g: trace diverges at %d: %q vs %q", L, i, got[i], base[i])
			}
		}
	}
}

// driveWorkloadInto reuses the kernel-reference storm generator against a
// provided simulation, collecting the trace.
func driveWorkloadInto(s *Simulation, trace *[]string) {
	rng := NewRand(99)
	var spawn func(depth, id int)
	spawn = func(depth, id int) {
		at := s.Now() + Time(rng.Float64()*4)
		if rng.Float64() < 0.3 {
			at = Time(math.Ceil(float64(at)))
		}
		pri := rng.Intn(3) - 1
		s.SchedulePriority(at, pri, func() {
			*trace = append(*trace, fmt.Sprintf("%d@%.6f/p%d", id, float64(s.Now()), pri))
			if depth > 0 {
				n := rng.Intn(3)
				for i := 0; i < n; i++ {
					spawn(depth-1, id*10+i)
				}
			}
		})
	}
	for root := 0; root < 30; root++ {
		spawn(3, root)
	}
	s.Run()
}

// TestRandCreationInsideParallelWindowPanics: stream creation is a setup
// operation; the first use of a new name inside a parallel window must
// panic instead of racing on the stream map.
func TestRandCreationInsideParallelWindowPanics(t *testing.T) {
	s := New(1)
	s.EnsureShards(2)
	s.SetLookahead(1)
	s.SetWorkers(2)
	panicked := make(chan any, 2)
	for i := 0; i < 2; i++ {
		i := i
		s.Shard(i).Schedule(1, func() {
			defer func() {
				if r := recover(); r != nil {
					panicked <- r
				}
			}()
			s.Rand(fmt.Sprintf("late-%d", i))
		})
	}
	s.Run()
	if len(panicked) != 2 {
		t.Fatalf("expected both in-window Rand creations to panic, got %d panics", len(panicked))
	}
}
