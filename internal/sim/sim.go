// Package sim provides a small deterministic discrete-event simulation
// kernel: a virtual clock, sharded event queues ordered by (time, priority,
// insertion order), and named pseudo-random streams.
//
// The kernel is deliberately callback-based rather than goroutine-based so
// that simulations are fully deterministic and cheap: an event is a closure
// scheduled at an absolute virtual time, and Run drains the queues in order.
// All simulated subsystems in this repository (the serverless platform, the
// storage services, the distributed trainer) advance time only through this
// kernel.
//
// # Shards
//
// A Simulation owns one or more Shards. Each shard has its own clock, its
// own event heap and its own event arena; a single-shard simulation (the
// default — New returns one shard, and the Simulation-level Schedule
// methods target it) behaves exactly like the historical single-queue
// kernel. Multi-shard simulations partition the workload by ownership — one
// shard per job or tenant — and run in conservative lookahead windows (see
// RunUntil). A window drains shard by shard, serially in shard-index order
// or concurrently on workers (SetWorkers), and either way every shard fires
// its own events in (time, priority, sequence) order, so event order per
// shard, clocks and observable output are the same at every shard count and
// worker count, provided the workload follows the shard ownership rules:
//
//   - Every piece of mutable state belongs to exactly one shard, and only
//     events running on that shard touch it.
//   - An event may Schedule freely onto its own shard; sends to another
//     shard go through Post, which delays them by at least the configured
//     lookahead and delivers them at window barriers.
//   - A named random stream (Stream) is a value held by its one owner, and
//     only that owner's shard draws from it.
//
// Cross-shard events that may collide on (time, priority) with events from
// another shard should carry a priority that identifies the sender (e.g.
// the tenant index): every shard's firing order is then fully determined by
// (time, priority) and cannot depend on how the workload was sharded. Step
// is the one interface that fires events in the global order across shards.
//
// # Performance
//
// Each shard's queue is an inlined binary heap over a slice of small
// struct-of-arrays entries — the (time, priority, sequence) comparison keys
// live in the heap entries, the closures and bookkeeping in arena-backed
// slots — and fired or dropped slots return to a per-shard free list linked
// through the slots themselves, so the steady-state hot loop (schedule, pop,
// fire, cancel) allocates nothing. The total order is identical to the
// reference container/heap implementation (asserted by the kernel
// equivalence tests and FuzzKernelOps).
//
// Beside its heap a shard has lanes (Shard.NewLane, Lane.Schedule): a lane is
// a FIFO of queue entries in non-decreasing (time, priority, sequence) order,
// for streams that are sorted when they are produced — a constant-delay hop,
// a timeout with a fixed hold — and the shard's next event is the smaller,
// under that same order, of the heap top and the earliest lane head (found
// through a small heap of the non-empty lanes' heads, O(log lanes) per lane
// pop). An entry whose key sorts before its lane's tail goes to the heap
// instead, so every lane stays sorted and where an entry waits can never
// change when it fires: a caller's claim that its stream is monotone is a
// performance hint, never a precondition. Sequence numbers come from the
// shard's one counter at the same program points whichever queue an entry
// lands in — in Schedule, and at the window barrier for delivered posts,
// which wait in one inbox lane per sending shard — so firing order, counts
// and clocks are those of the heap-only kernel by construction.
//
// Cancel is O(1) everywhere, and what a canceled event costs afterwards
// depends on where it waits. In a lane, canceling the head removes it on the
// spot, and an entry behind the head is marked and skipped when the head
// reaches it. A FIFO canceled oldest-first (Lane.CancelHead) never holds a
// corpse, so its Lane.Len is its live count: internal/faas keeps one reclaim
// per warm release batch on each memory size's lane that way. In the
// heap a canceled entry stays until its time comes and is dropped when
// popped, so a stream that is canceled far ahead of its fire time — a timeout
// with a fixed hold — is sorted by construction and belongs on a lane. The
// order is strict, so neither changes a firing order, clock or count. Pending
// counts what is queued anywhere: heap and lane entries, canceled ones not yet
// dropped included, and posts not yet delivered. Shard.QueueStats reports how
// many entries each kind of queue popped, and how many of them were dead.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, measured in seconds since the start of
// the simulation. A float64 keeps the arithmetic in the analytical models
// and the simulator identical.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = float64

func (t Time) String() string {
	return fmt.Sprintf("t=%.3fs", float64(t))
}

// Simulation owns the virtual clocks and the shard set, and seeds the named
// random streams. The zero value is not usable; construct with New.
type Simulation struct {
	shards  []*Shard
	main    *Shard // shards[0]; the target of the legacy Schedule methods
	running bool
	seed    uint64

	// lookahead is the conservative parallel-window width: a Post from an
	// event at time t is delivered no earlier than t+lookahead, so shards
	// never interact inside a window of that width. +Inf (the default)
	// means "no cross-shard traffic": Post panics and RunUntil drains in
	// one window, which is exactly the historical single-queue behavior.
	lookahead float64

	// workers bounds how many shards drain concurrently inside one window;
	// 1 (the default) keeps execution fully sequential.
	workers int

	// firing is true while events execute — a RunUntil window or one Step —
	// and is set and cleared on the coordinating goroutine, never by a worker.
	// While it is set only a shard whose events are executing may be touched
	// (Shard.own), so scheduling, canceling or posting across shards mid-run
	// panics instead of silently breaking shard-count invariance.
	firing bool
}

// New returns a single-shard simulation whose named random streams derive
// from seed.
func New(seed uint64) *Simulation {
	s := &Simulation{
		seed:      seed,
		lookahead: math.Inf(1),
		workers:   1,
	}
	s.main = newShard(s, 0)
	s.shards = []*Shard{s.main}
	return s
}

// EnsureShards grows the shard set to at least n shards (it never shrinks).
// Shard 0 always exists and is the target of the Simulation-level Schedule
// methods. Must be called outside Run.
func (s *Simulation) EnsureShards(n int) {
	if s.running {
		panic("sim: EnsureShards during Run")
	}
	for len(s.shards) < n {
		s.shards = append(s.shards, newShard(s, len(s.shards)))
	}
}

// NumShards reports the current shard count.
func (s *Simulation) NumShards() int { return len(s.shards) }

// Shard returns shard i (0 <= i < NumShards).
func (s *Simulation) Shard(i int) *Shard { return s.shards[i] }

// Main returns shard 0, the default owner of all legacy single-queue
// workloads.
func (s *Simulation) Main() *Shard { return s.main }

// SetLookahead sets the conservative window width used to bound parallel
// advancement and the minimum delay of every Post. L must be positive;
// +Inf (the default) disables cross-shard traffic entirely. Must be called
// outside Run.
func (s *Simulation) SetLookahead(L float64) {
	if s.running {
		panic("sim: SetLookahead during Run")
	}
	if !(L > 0) {
		panic(fmt.Sprintf("sim: SetLookahead(%g): lookahead must be positive", L))
	}
	s.lookahead = L
}

// SetWorkers bounds how many shards execute concurrently inside one
// lookahead window; w < 1 is clamped to 1 (fully sequential). The results
// are byte-identical at every worker count. Must be called outside Run.
func (s *Simulation) SetWorkers(w int) {
	if s.running {
		panic("sim: SetWorkers during Run")
	}
	if w < 1 {
		w = 1
	}
	s.workers = w
}

// Now returns the current virtual time of the main shard (shard 0). In a
// single-shard simulation this is the simulation clock; multi-shard
// workloads read their own Shard.Now instead.
func (s *Simulation) Now() Time { return s.main.now }

// EventsFired reports how many events have executed so far, over all
// shards.
func (s *Simulation) EventsFired() uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.fired
	}
	return n
}

// Pending reports how many events are queued over all shards — on heaps and
// in lanes — including posts not yet delivered to their target shard and
// canceled events not yet dropped: a heap keeps those until their time comes,
// a lane only the ones its head has not reached.
func (s *Simulation) Pending() int {
	n := 0
	for _, sh := range s.shards {
		n += len(sh.heap) + len(sh.outbox)
		for _, r := range sh.lanes {
			n += len(r.l.q) - r.l.head
		}
	}
	return n
}

// Schedule queues fn to run on the main shard at absolute virtual time at.
// Scheduling in the past (before Now) panics: that is always a bug in the
// caller.
func (s *Simulation) Schedule(at Time, fn func()) Event {
	return s.main.SchedulePriority(at, 0, fn)
}

// ScheduleAfter queues fn to run on the main shard d seconds from now.
// Negative d panics.
func (s *Simulation) ScheduleAfter(d Duration, fn func()) Event {
	return s.main.ScheduleAfter(d, fn)
}

// SchedulePriority is Schedule with an explicit tie-break priority; among
// events at the same instant, lower priority values run first.
func (s *Simulation) SchedulePriority(at Time, priority int, fn func()) Event {
	return s.main.SchedulePriority(at, priority, fn)
}

// Run drains every shard until no events remain, advancing each shard's
// clock to its events' times. Events may schedule further events.
func (s *Simulation) Run() {
	s.RunUntil(Time(math.Inf(1)))
}

// RunUntil drains events with time <= limit, over all shards. Each shard's
// clock is left at its last executed event's time, or at limit when limit
// is finite and ahead of that clock (RunUntil never moves a clock
// backwards: a limit already in the past leaves the clock where it is).
//
// Execution proceeds in conservative lookahead windows: with the earliest
// pending event across all shards at Tmin, every shard drains its events in
// [Tmin, Tmin+L) — where L is the configured lookahead — then cross-shard
// posts are delivered and the next window starts. Because a Post sent at
// time t arrives no earlier than t+L >= Tmin+L, shards cannot observe each
// other inside a window, so a window drains one shard after another, or
// several at once (SetWorkers), without changing any result. With the
// default L=+Inf the whole run is one window, which on one shard is the
// historical single-queue semantics.
func (s *Simulation) RunUntil(limit Time) {
	if s.running {
		panic("sim: Run re-entered")
	}
	s.running = true
	defer func() { s.running = false }()
	for {
		s.flushPosts()
		_, min := s.peekMin()
		if min == nil || min.at > limit {
			break
		}
		tmin := min.at
		// The window bound: exclusive at Tmin+L, unless the caller's limit
		// cuts in first — the limit itself is inclusive, matching the
		// historical "drain events with time <= limit" contract.
		bound, inclusive := tmin+Time(s.lookahead), false
		if !(bound <= limit) {
			bound, inclusive = limit, true
		}
		s.drainWindow(bound, inclusive)
	}
	if !math.IsInf(float64(limit), 1) {
		for _, sh := range s.shards {
			if limit > sh.now {
				sh.now = limit
			}
		}
	}
}

// peekMin returns the shard whose next event is globally earliest by
// (time, priority, sequence, shard index) and that event's queue entry, or
// nils when nothing is queued. The shard index is the final tie-break;
// per-shard sequence counters make the first three keys identical however
// the run is executed.
func (s *Simulation) peekMin() (*Shard, *heapEntry) {
	var best *Shard
	var min *heapEntry
	for _, sh := range s.shards {
		if e, _ := sh.top(); e != nil && (min == nil || entryLess(e, min)) {
			best, min = sh, e
		}
	}
	return best, min
}

// drainWindow executes every shard's events inside the window, shard by
// shard: on up to Simulation.workers goroutines when more than one shard has
// work, otherwise serially in shard-index order. Shards cannot observe each
// other inside a window — a Post lands at or past its end — so each shard
// fires the same events in the same (time, priority, sequence) order either
// way, and any state observed through the shard-ownership rules — which is
// all state, for a conforming workload — sees the exact same history.
func (s *Simulation) drainWindow(bound Time, inclusive bool) {
	s.firing = true
	busy := 0
	if s.workers > 1 {
		for _, sh := range s.shards {
			if sh.eligible(bound, inclusive) {
				busy++
			}
		}
	}
	if busy > 1 {
		s.drainWindowParallel(bound, inclusive)
	} else {
		for _, sh := range s.shards {
			sh.drain(bound, inclusive)
		}
	}
	s.firing = false
}

// flushPosts delivers every shard's outbox to the target shards, in
// (sender shard index, send order) order. Flushing only happens at window
// barriers, so target-shard sequence numbers are assigned identically
// however the previous window was executed.
func (s *Simulation) flushPosts() {
	for _, sh := range s.shards {
		if len(sh.outbox) == 0 {
			continue
		}
		for i := range sh.outbox {
			m := &sh.outbox[i]
			if m.at < m.to.now {
				panic(fmt.Sprintf("sim: post delivered at %v behind shard %d clock %v", m.at, m.to.idx, m.to.now))
			}
			m.to.deliver(sh.idx, m.at, m.pri, m.fn)
			m.to, m.fn = nil, nil
		}
		sh.outbox = sh.outbox[:0]
	}
}

// Step executes exactly one pending (non-canceled) event — the globally
// earliest across all shards by (time, priority, sequence, shard index) —
// and reports whether one was executed. Step is the kernel's one
// global-order interface, for debugging and tests (RunUntil drains whole
// windows shard by shard); it delivers pending posts before picking the
// event.
func (s *Simulation) Step() bool {
	s.flushPosts()
	s.firing = true
	fired := false
	for !fired {
		sh, _ := s.peekMin()
		if sh == nil {
			break
		}
		_, l := sh.top()
		sh.executing = true
		fired = sh.popFire(l)
		sh.executing = false
	}
	s.firing = false
	return fired
}

// Stream returns the named deterministic random stream, seeded with
// seed ^ FNV-1a(name). Streams with the same name under the same simulation
// seed always produce the same sequence, independent of other streams, so
// adding a new consumer of randomness does not perturb existing experiments.
// The simulation keeps no record of it: each call starts the sequence afresh,
// and the caller holds the stream by value as its one owner (a copy would
// fork it). It reads no shared state and may be called at any time.
func (s *Simulation) Stream(name string) Rand {
	return *NewRand(s.seed ^ hashString(name))
}

func hashString(name string) uint64 {
	// FNV-1a, inlined to avoid pulling hash/fnv into the hot path.
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}
