package sim

import (
	"fmt"
	"math"
)

// Event is a handle to a scheduled callback. Events compare by time, then
// priority (lower runs first), then insertion sequence, which makes
// simultaneous events deterministic.
//
// The handle is a small value (not a pointer into the kernel): it pairs the
// event's arena slot with the generation the slot had when the event was
// scheduled. Once the event fires or its canceled entry is dropped, the kernel
// bumps the slot's generation and recycles it, so a stale handle no longer
// matches and Cancel/Canceled on it are safe no-ops instead of silently acting
// on an unrelated event that reused the slot. The zero Event is inert.
type Event struct {
	slot *eventSlot
	gen  uint64
}

// At reports the virtual time the event is scheduled for, or 0 when the
// handle is zero or stale.
func (e Event) At() Time {
	if e.slot == nil || e.slot.gen != e.gen {
		return 0
	}
	return e.slot.at
}

// Cancel marks the event so that it will never fire. Canceling an event
// that already fired or was dropped is a no-op: the handle's generation no
// longer matches the recycled slot.
//
// Cancel is O(1). A canceled heap entry stays queued until its time comes and
// is dropped when popped (QueueStats.DeadPops counts those), so it is carried
// for as long as it was scheduled ahead. In a Lane, canceling the head removes
// it on the spot — canceling a FIFO's oldest entry never leaves a corpse — and
// any other entry is skipped when the head reaches it.
func (e Event) Cancel() {
	slot := e.slot
	if slot == nil || slot.gen != e.gen {
		return
	}
	sh := slot.sh
	sh.own("cancel an event of")
	if slot.canceled {
		return
	}
	slot.canceled = true
	// An event canceling itself from its own callback is already out of its
	// queue; a queued one leaves now only if it heads its lane.
	if l := slot.lane; slot.queued && l != nil && l.q[l.head].slot == slot {
		l.advance()
		sh.recycle(slot)
	}
}

// Canceled reports whether Cancel has been called on the event. A zero or
// stale handle reports false (the event it referred to is gone).
func (e Event) Canceled() bool {
	return e.slot != nil && e.slot.gen == e.gen && e.slot.canceled
}

// eventSlot is the arena-resident payload of one scheduled event. The
// comparison keys live in the heap entries; the slot carries the closure
// and the generation counter that invalidates stale handles.
type eventSlot struct {
	fn       func()
	at       Time
	gen      uint64
	canceled bool
	queued   bool  // a heap or lane entry points here; false once popped
	lane     *Lane // the lane holding that entry, nil for the heap
	sh       *Shard
	next     *eventSlot // the free list's link while the slot is idle
}

// heapEntry is one element of a shard's binary heap: the (time, priority,
// sequence) ordering keys inline — so sift comparisons never chase the slot
// pointer — plus the slot holding the payload.
type heapEntry struct {
	at   Time
	pri  int
	seq  uint64
	slot *eventSlot
}

// entryLess is a shard-local queue's total order: (time, priority,
// sequence).
func entryLess(a, b *heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// postMsg is one pending cross-shard send, buffered in the sender's outbox
// until the next window barrier.
type postMsg struct {
	to  *Shard
	at  Time
	pri int
	fn  func()
}

// Shard is one event queue with its own clock, sequence counter and event
// arena. All state a shard's events mutate belongs to that shard alone;
// cross-shard interaction goes through Post.
type Shard struct {
	sim *Simulation
	idx int
	now Time

	heap  []heapEntry
	seq   uint64
	fired uint64
	// lanes is a min-heap, by head entry, of the shard's non-empty lanes
	// (lane.go); inbox[i] is the lane posts from shard i are delivered into.
	lanes []laneRef
	inbox []*Lane
	stats QueueStats

	// free heads the list of recycled slots (linked through the slots, so
	// returning one never allocates); arena is the tail of the current
	// allocation block new slots are carved from. Together they make the
	// steady-state schedule/fire/cancel loop allocation-free.
	free   *eventSlot
	arena  []eventSlot
	allocs uint64 // slots carved from fresh arena blocks (tests assert reuse)

	// outbox buffers cross-shard posts until the next window barrier.
	outbox []postMsg

	// executing is true while this shard's events fire — in drain, or in
	// Step — and is set and read by the goroutine running them (see own).
	executing bool
}

// arenaChunk is how many event slots one arena block holds: large enough
// to amortize the block allocation, small enough not to bloat tiny
// simulations.
const arenaChunk = 64

func newShard(s *Simulation, idx int) *Shard {
	return &Shard{sim: s, idx: idx}
}

// Now returns the shard's current virtual time.
func (sh *Shard) Now() Time { return sh.now }

// EventsFired reports how many events have executed on this shard.
func (sh *Shard) EventsFired() uint64 { return sh.fired }

// Schedule queues fn to run on this shard at absolute virtual time at.
// Scheduling in the past (before the shard's Now) panics.
func (sh *Shard) Schedule(at Time, fn func()) Event {
	return sh.SchedulePriority(at, 0, fn)
}

// ScheduleAfter queues fn to run on this shard d seconds from the shard's
// now. Negative d panics.
func (sh *Shard) ScheduleAfter(d Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: ScheduleAfter with negative delay %g", d))
	}
	return sh.SchedulePriority(sh.now+Time(d), 0, fn)
}

// SchedulePriority is Schedule with an explicit tie-break priority; among
// events at the same instant, lower priority values run first.
//
// Only the shard's own events (or setup code running outside Run) may
// schedule onto it; an event on another shard must use Post instead, and
// the kernel panics on violations it can observe.
func (sh *Shard) SchedulePriority(at Time, priority int, fn func()) Event {
	sh.checkSchedule(at)
	slot := sh.newSlot(at, fn)
	sh.enqueue2(at, priority, slot)
	return Event{slot: slot, gen: slot.gen}
}

// own panics unless the caller may act on this shard: while events fire,
// only the shard's own events may schedule onto it, cancel its events or post
// through its outbox (setup code outside Run may touch any shard). act names
// the attempted action for the message.
func (sh *Shard) own(act string) {
	if sh.sim.firing && !sh.executing {
		panic(fmt.Sprintf("sim: %s shard %d from another shard's event; cross-shard interaction must go through Post", act, sh.idx))
	}
}

// checkSchedule panics unless the caller may schedule onto this shard at at:
// the ownership, past-time and non-finite-time rules of SchedulePriority.
func (sh *Shard) checkSchedule(at Time) {
	sh.own("schedule onto")
	if at < sh.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, sh.now))
	}
	if math.IsNaN(float64(at)) || math.IsInf(float64(at), 0) {
		panic(fmt.Sprintf("sim: scheduling event at non-finite time %v", float64(at)))
	}
}

// Post sends fn to run on shard to at absolute time at with the given
// tie-break priority. Posts are the only sanctioned cross-shard channel:
// they are buffered in the sender's outbox and delivered at the next window
// barrier, and must target a time at least one lookahead past the sender's
// clock — that gap is what lets shards execute a window concurrently
// without observing each other. Posting to the shard itself is allowed and
// follows the same rules. Post requires a finite lookahead
// (Simulation.SetLookahead).
func (sh *Shard) Post(to *Shard, at Time, priority int, fn func()) {
	s := sh.sim
	if to == nil || to.sim != s {
		panic("sim: Post to a shard of a different simulation")
	}
	// Like Schedule, Post may only be called through the shard whose event
	// is currently executing (or from setup code outside Run): the outbox
	// is single-writer, and the lookahead check below is only meaningful
	// against the true sender's clock.
	sh.own("post through the outbox of")
	if math.IsInf(s.lookahead, 1) {
		panic("sim: Post requires a finite lookahead; call SetLookahead before Run")
	}
	if math.IsNaN(float64(at)) || math.IsInf(float64(at), 0) {
		panic(fmt.Sprintf("sim: posting event at non-finite time %v", float64(at)))
	}
	if at < sh.now+Time(s.lookahead) {
		panic(fmt.Sprintf("sim: post at %v violates lookahead: sender shard %d is at %v with lookahead %g", at, sh.idx, sh.now, s.lookahead))
	}
	sh.outbox = append(sh.outbox, postMsg{to: to, at: at, pri: priority, fn: fn})
}

// BatchEvent is one entry of a ScheduleBatch bulk injection.
type BatchEvent struct {
	At  Time
	Pri int
	Fn  func()
}

// ScheduleBatch schedules every entry onto this shard under the same rules
// as SchedulePriority (own-shard only, no past or non-finite times), with
// sequence numbers assigned in slice order — so the firing order among
// same-(time, priority) entries is the slice order, exactly as if each had
// been scheduled individually.
//
// The point of the batch form is amortization for burst arrivals: when the
// batch is large relative to the pending queue the heap is rebuilt bottom-up
// (Floyd) in O(pending + batch) instead of paying O(batch * log(pending))
// sift-ups; small batches fall back to individual pushes. Batch events
// return no handles and cannot be canceled.
func (sh *Shard) ScheduleBatch(batch []BatchEvent) {
	sh.own("batch-schedule onto")
	for i := range batch {
		at := batch[i].At
		if at < sh.now {
			panic(fmt.Sprintf("sim: batch entry %d scheduled at %v before now %v", i, at, sh.now))
		}
		if math.IsNaN(float64(at)) || math.IsInf(float64(at), 0) {
			panic(fmt.Sprintf("sim: batch entry %d scheduled at non-finite time %v", i, float64(at)))
		}
	}
	// Below the amortization break-even, individual sift-ups are cheaper
	// than re-heapifying the whole queue.
	if len(batch)*8 < len(sh.heap) {
		for i := range batch {
			sh.enqueue2(batch[i].At, batch[i].Pri, sh.newSlot(batch[i].At, batch[i].Fn))
		}
		return
	}
	q := sh.heap
	if need := len(q) + len(batch); cap(q) < need {
		grown := make([]heapEntry, len(q), need)
		copy(grown, q)
		q = grown
	}
	for i := range batch {
		slot := sh.newSlot(batch[i].At, batch[i].Fn)
		q = append(q, heapEntry{at: batch[i].At, pri: batch[i].Pri, seq: sh.seq, slot: slot})
		sh.seq++
	}
	for i := len(q)/2 - 1; i >= 0; i-- {
		siftDown(q, i)
	}
	sh.heap = q
	sh.stats.HeapPeak = max(sh.stats.HeapPeak, len(q))
}

// deliver queues an already-validated post from shard `from` on that
// sender's inbox lane: one sender's posts mostly arrive in key order (its
// clock is monotone and a constant-delay hop preserves that), and the ones
// that do not fall back to the heap like any other lane push.
func (sh *Shard) deliver(from int, at Time, priority int, fn func()) {
	for len(sh.inbox) <= from {
		sh.inbox = append(sh.inbox, nil)
	}
	if sh.inbox[from] == nil {
		sh.inbox[from] = sh.NewLane()
	}
	sh.inbox[from].push(at, priority, fn)
}

// enqueue2 pushes slot onto the heap under (at, priority, next sequence).
func (sh *Shard) enqueue2(at Time, priority int, slot *eventSlot) {
	sh.heapPush(heapEntry{at: at, pri: priority, seq: sh.seq, slot: slot})
	sh.seq++
}

// newSlot returns a slot from the free list or the arena, filled in for an
// event about to enter the heap (recycled and fresh slots are both
// uncanceled).
func (sh *Shard) newSlot(at Time, fn func()) *eventSlot {
	slot := sh.free
	if slot != nil {
		sh.free, slot.next = slot.next, nil
	} else {
		if len(sh.arena) == 0 {
			block := make([]eventSlot, arenaChunk)
			for i := range block {
				block[i].sh = sh
			}
			sh.arena = block
		}
		slot = &sh.arena[0]
		sh.arena = sh.arena[1:]
		sh.allocs++
	}
	slot.fn, slot.at, slot.queued, slot.lane = fn, at, true, nil
	return slot
}

// recycle returns a fired or dropped slot to the free list, bumping its
// generation so outstanding handles go stale. The closure is dropped so the
// kernel does not pin caller state between reuses.
func (sh *Shard) recycle(slot *eventSlot) {
	slot.fn = nil
	slot.canceled = false
	slot.gen++
	slot.next = sh.free
	sh.free = slot
}

// eligible reports whether the shard has an event inside the window bound.
func (sh *Shard) eligible(bound Time, inclusive bool) bool {
	e, _ := sh.top()
	return e != nil && (e.at < bound || (inclusive && e.at == bound))
}

// drain executes the shard's events up to the window bound (exclusive, or
// inclusive at the caller's RunUntil limit) in (time, priority, sequence)
// order, advancing the shard clock to each event's time before invoking it;
// a shard with nothing inside the window returns at once. It is the only
// way a window runs events, whether the shards take their turns in index
// order or on workers. Events fired here may schedule further events onto
// this shard — including inside the same window — and post to other shards.
func (sh *Shard) drain(bound Time, inclusive bool) {
	sh.executing = true
	for {
		e, l := sh.top()
		if e == nil || e.at > bound || (e.at == bound && !inclusive) {
			break
		}
		sh.popFire(l)
	}
	sh.executing = false
}

// popFire removes the shard's top entry — lane l's head, or the heap's when l
// is nil — and fires it, reporting whether it did: a canceled heap entry is
// dropped instead (a lane's head is never canceled).
func (sh *Shard) popFire(l *Lane) bool {
	var e heapEntry
	if l != nil {
		e = l.q[l.head]
		l.advance()
		sh.stats.LanePops++
	} else {
		e = sh.heapPop()
		sh.stats.HeapPops++
		if e.slot.canceled {
			sh.stats.DeadPops++
			sh.recycle(e.slot)
			return false
		}
	}
	slot := e.slot
	sh.now = e.at
	sh.fired++
	fn := slot.fn
	slot.fn = nil
	fn()
	sh.recycle(slot)
	return true
}

// heapPush appends e and sifts it up to its ordered position.
func (sh *Shard) heapPush(e heapEntry) {
	q := append(sh.heap, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(&q[i], &q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	sh.heap = q
	sh.stats.HeapPeak = max(sh.stats.HeapPeak, len(q))
}

// heapPop removes and returns the minimum entry.
func (sh *Shard) heapPop() heapEntry {
	q := sh.heap
	top := q[0]
	top.slot.queued = false
	n := len(q) - 1
	q[0] = q[n]
	q[n] = heapEntry{}
	q = q[:n]
	sh.heap = q
	siftDown(q, 0)
	return top
}

// siftDown restores the heap order below index i after q[i] was replaced.
func siftDown(q []heapEntry, i int) {
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && entryLess(&q[r], &q[l]) {
			m = r
		}
		if !entryLess(&q[m], &q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}
