package sim

// A test-only reference implementation of the event queue on top of
// container/heap, preserving the kernel's pre-optimization semantics. The
// equivalence test drives the optimized kernel and this reference through
// an identical randomized workload (schedules, cancellations, nested
// scheduling) and asserts byte-identical firing traces, EventsFired counts
// and final clocks.

import (
	"container/heap"
	"fmt"
	"math"
	"testing"
)

type refEvent struct {
	at       Time
	priority int
	seq      uint64
	fn       func()
	canceled bool
	fired    bool
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	if q[i].priority != q[j].priority {
		return q[i].priority < q[j].priority
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

type refSim struct {
	now   Time
	queue refQueue
	seq   uint64
	fired uint64
	live  int // queued and not canceled
}

func (s *refSim) schedule(at Time, priority int, fn func()) *refEvent {
	e := &refEvent{at: at, priority: priority, seq: s.seq, fn: fn}
	s.seq++
	s.live++
	heap.Push(&s.queue, e)
	return e
}

// cancel marks e so that it never fires; it stays queued until its time
// comes. Canceling a fired or already canceled event changes nothing.
func (s *refSim) cancel(e *refEvent) {
	if !e.canceled && !e.fired {
		e.canceled = true
		s.live--
	}
}

func (s *refSim) run() { s.runUntil(Time(math.Inf(1))) }

// runUntil mirrors Simulation.RunUntil: fire everything due at or before
// limit, then move the clock up to a finite limit (never backwards).
func (s *refSim) runUntil(limit Time) {
	for len(s.queue) > 0 && s.queue[0].at <= limit {
		s.pop()
	}
	if !math.IsInf(float64(limit), 1) && limit > s.now {
		s.now = limit
	}
}

// step mirrors Simulation.Step: fire the earliest live event, if any.
func (s *refSim) step() bool {
	for len(s.queue) > 0 {
		if s.pop() {
			return true
		}
	}
	return false
}

// pop removes the head and fires it unless it was canceled.
func (s *refSim) pop() bool {
	next := heap.Pop(&s.queue).(*refEvent)
	if next.canceled {
		return false
	}
	s.now = next.at
	s.fired++
	s.live--
	next.fired = true
	next.fn()
	return true
}

// kernelDriver abstracts the two implementations so one workload generator
// drives both.
type kernelDriver interface {
	schedulePri(at Time, priority int, fn func())
	cancelLast()
	run()
	clock() Time
	firedCount() uint64
}

// optDriver sends every third schedule to the heap and the others to two
// lanes, whatever their keys: the reference knows no lanes, so the equal
// traces say that where an entry waits does not change when it fires.
type optDriver struct {
	s     *Simulation
	lanes [2]*Lane
	n     int
	last  Event // zero handle is inert, so cancelLast needs no guard
}

func newOptDriver(seed uint64) *optDriver {
	d := &optDriver{s: New(seed)}
	d.lanes = [2]*Lane{d.s.main.NewLane(), d.s.main.NewLane()}
	return d
}

func (d *optDriver) schedulePri(at Time, priority int, fn func()) {
	if d.n++; d.n%3 == 0 {
		d.last = d.s.SchedulePriority(at, priority, fn)
	} else {
		d.last = d.lanes[d.n%3-1].Schedule(at, priority, fn)
	}
}
func (d *optDriver) cancelLast() {
	d.last.Cancel()
	d.last = Event{}
}
func (d *optDriver) run()               { d.s.Run() }
func (d *optDriver) clock() Time        { return d.s.Now() }
func (d *optDriver) firedCount() uint64 { return d.s.EventsFired() }

type refDriver struct {
	s    *refSim
	last *refEvent
}

func (d *refDriver) schedulePri(at Time, priority int, fn func()) {
	d.last = d.s.schedule(at, priority, fn)
}
func (d *refDriver) cancelLast() {
	if d.last != nil {
		d.s.cancel(d.last)
		d.last = nil
	}
}
func (d *refDriver) run()               { d.s.run() }
func (d *refDriver) clock() Time        { return d.s.now }
func (d *refDriver) firedCount() uint64 { return d.s.fired }

// driveWorkload runs a deterministic pseudo-random event storm on the given
// kernel: a set of roots each spawning chains of follow-up events with
// colliding timestamps and priorities, a fraction canceled before firing.
// It returns the firing trace.
func driveWorkload(d kernelDriver, seed uint64) []string {
	rng := NewRand(seed)
	var trace []string
	var spawn func(depth int, id int)
	spawn = func(depth int, id int) {
		at := d.clock() + Time(rng.Float64()*4)
		// Force timestamp collisions so the (priority, seq) tie-break is
		// exercised, not just the time order.
		if rng.Float64() < 0.3 {
			at = Time(math.Ceil(float64(at)))
		}
		pri := rng.Intn(3) - 1
		d.schedulePri(at, pri, func() {
			trace = append(trace, fmt.Sprintf("%d@%.6f/p%d", id, float64(d.clock()), pri))
			if depth > 0 {
				n := rng.Intn(3)
				for i := 0; i < n; i++ {
					spawn(depth-1, id*10+i)
				}
			}
		})
		if rng.Float64() < 0.2 {
			d.cancelLast()
		}
	}
	for root := 0; root < 40; root++ {
		spawn(3, root)
	}
	d.run()
	return trace
}

// TestKernelMatchesReferenceHeap pins the optimized kernel (inlined heap +
// event free list) to the container/heap reference: same firing order, same
// EventsFired, same final clock, across several seeds.
func TestKernelMatchesReferenceHeap(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		opt := newOptDriver(seed)
		ref := &refDriver{s: &refSim{}}
		gotTrace := driveWorkload(opt, seed)
		wantTrace := driveWorkload(ref, seed)
		if len(gotTrace) != len(wantTrace) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(gotTrace), len(wantTrace))
		}
		for i := range gotTrace {
			if gotTrace[i] != wantTrace[i] {
				t.Fatalf("seed %d: trace diverges at %d: %q vs %q", seed, i, gotTrace[i], wantTrace[i])
			}
		}
		if opt.firedCount() != ref.firedCount() {
			t.Fatalf("seed %d: EventsFired %d, reference %d", seed, opt.firedCount(), ref.firedCount())
		}
		if opt.clock() != ref.clock() {
			t.Fatalf("seed %d: final clock %v, reference %v", seed, opt.clock(), ref.clock())
		}
		if st := opt.s.main.QueueStats(); st.LanePops == 0 || st.Fallbacks == 0 || st.HeapPops == st.Fallbacks {
			t.Fatalf("seed %d: %+v: want events through the lanes, through the fallback and straight onto the heap", seed, st)
		}
	}
}

// TestRunUntilNeverMovesClockBackwards is the regression test for the
// early-return branch of RunUntil setting now = limit unconditionally: after
// the clock has advanced past limit, RunUntil(limit) must leave it alone.
func TestRunUntilNeverMovesClockBackwards(t *testing.T) {
	s := New(1)
	s.Schedule(20, func() {})
	s.RunUntil(10)
	if s.Now() != 10 {
		t.Fatalf("Now = %v, want 10", s.Now())
	}
	// Queue still holds the t=20 event; a smaller limit used to drag the
	// clock back to 7 through the early-return branch.
	s.RunUntil(7)
	if s.Now() != 10 {
		t.Fatalf("RunUntil moved the clock backwards: Now = %v, want 10", s.Now())
	}
	// The empty-queue branch was already guarded; check it stays correct.
	s.RunUntil(25)
	if s.Now() != 25 {
		t.Fatalf("Now = %v, want 25", s.Now())
	}
	s.RunUntil(3)
	if s.Now() != 25 {
		t.Fatalf("RunUntil on empty queue moved the clock backwards: Now = %v, want 25", s.Now())
	}
	if s.EventsFired() != 1 {
		t.Fatalf("EventsFired = %d, want 1", s.EventsFired())
	}
}

// TestEventFreeListRecycles asserts the steady-state schedule/fire loop
// stops allocating once the free list warms up: a million-event chain must
// not carve more than one arena chunk.
func TestEventFreeListRecycles(t *testing.T) {
	s := New(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < 1_000_000 {
			s.ScheduleAfter(1, step)
		}
	}
	s.ScheduleAfter(0, step)
	s.Run()
	if s.EventsFired() != 1_000_000 {
		t.Fatalf("fired %d events, want 1000000", s.EventsFired())
	}
	if s.main.allocs > arenaChunk {
		t.Fatalf("allocated %d events for a 1-deep chain, want <= %d (free list not recycling)", s.main.allocs, arenaChunk)
	}
}

// TestCanceledEventsRecycledOnReap asserts canceled events return to the
// free list when the run loop pops them.
func TestCanceledEventsRecycledOnReap(t *testing.T) {
	s := New(1)
	for round := 0; round < 1000; round++ {
		ev := s.Schedule(Time(round)+1, func() {})
		ev.Cancel()
		s.Schedule(Time(round)+1, func() {})
		s.RunUntil(Time(round) + 1)
	}
	if s.main.allocs > 2*arenaChunk {
		t.Fatalf("allocated %d events across 1000 cancel rounds, want <= %d", s.main.allocs, 2*arenaChunk)
	}
	if s.EventsFired() != 1000 {
		t.Fatalf("fired %d, want 1000", s.EventsFired())
	}
}
