package sim

// Lane is a FIFO beside its shard's heap for a stream of events whose keys
// are already sorted when they are produced (a constant-delay hop, a timeout
// with a fixed hold): its entries wait in non-decreasing (time, priority,
// sequence) order, and the shard's next event is the smaller, by entryLess,
// of the heap top and the earliest lane head. An entry whose key sorts before
// its lane's tail goes to the heap instead, so where an entry waits never
// changes when it fires; sequence numbers come from the shard's one counter
// exactly as for SchedulePriority. A lane belongs to its shard and follows
// the same ownership rules.
type Lane struct {
	sh   *Shard
	q    []heapEntry // q[head:] are the queued entries, oldest first
	head int
	pos  int // index in sh.lanes while the lane is non-empty
}

// laneRef is one element of a shard's heap of non-empty lanes: the lane and a
// copy of its head entry, so picking the earliest lane compares keys in one
// array instead of chasing every lane's buffer.
type laneRef struct {
	key heapEntry
	l   *Lane
}

// QueueStats counts what a shard's queues did (see Shard.QueueStats).
type QueueStats struct {
	LanePops   uint64 // entries fired from a lane, plus the canceled ones skipped behind a lane head
	HeapPops   uint64 // entries popped from the heap, canceled ones included
	DeadPops   uint64 // canceled entries among the two counts above
	LanePushes uint64 // entries offered to a lane, by Lane.Schedule or post delivery
	Fallbacks  uint64 // of those, the ones that sorted before the lane's tail and went to the heap
	HeapPeak   int    // heap length high-water mark, canceled entries included
}

// QueueStats reports the shard's queue counters: deterministic, like every
// other kernel count, and so LanePops + HeapPops == EventsFired + DeadPops.
func (sh *Shard) QueueStats() QueueStats { return sh.stats }

// NewLane returns an empty lane on this shard. An empty lane costs nothing
// and is not referenced by the shard, so callers may create lanes freely.
func (sh *Shard) NewLane() *Lane { return &Lane{sh: sh} }

// Schedule is Shard.SchedulePriority for an event the caller expects to sort
// at or after everything already in the lane. A key that does not is still
// scheduled correctly — through the heap — so monotonicity is a performance
// hint, never a precondition.
func (l *Lane) Schedule(at Time, priority int, fn func()) Event {
	l.sh.checkSchedule(at)
	slot := l.push(at, priority, fn)
	return Event{slot: slot, gen: slot.gen}
}

// Len reports how many entries wait on the lane, canceled ones behind its head
// included; entries that fell back to the heap are not the lane's.
func (l *Lane) Len() int { return len(l.q) - l.head }

// CancelHead cancels the lane's oldest entry — always a live one — through
// Event.Cancel, with its ownership checks, and reports whether there was one.
// A lane whose entries are only ever canceled oldest-first is thereby a
// complete record of them: its length is their count and it needs no handles.
func (l *Lane) CancelHead() bool {
	if l.head == len(l.q) {
		return false
	}
	slot := l.q[l.head].slot
	Event{slot: slot, gen: slot.gen}.Cancel()
	return true
}

// push queues an already-validated event under the shard's next sequence
// number: at the lane's tail, or on the heap if it sorts before the tail.
func (l *Lane) push(at Time, priority int, fn func()) *eventSlot {
	sh := l.sh
	slot := sh.newSlot(at, fn)
	sh.stats.LanePushes++
	n := len(l.q)
	empty := l.head == n
	if empty {
		l.q, l.head = l.q[:0], 0
	} else if tail := &l.q[n-1]; at < tail.at || (at == tail.at && priority < tail.pri) {
		sh.stats.Fallbacks++
		sh.enqueue2(at, priority, slot)
		return slot
	} else if l.head*2 >= n {
		// Slide the queued entries over a consumed prefix that has reached
		// their number: at most one entry moved per entry consumed, and a
		// buffer that stays within twice the queued count — short lanes stay in
		// cache, and none allocates again once it has seen its longest queue.
		l.q = l.q[:copy(l.q, l.q[l.head:])]
		l.head = 0
	}
	slot.lane = l
	e := heapEntry{at: at, pri: priority, seq: sh.seq, slot: slot}
	sh.seq++
	l.q = append(l.q, e)
	if empty {
		sh.lanes = append(sh.lanes, laneRef{})
		sh.laneSift(len(sh.lanes)-1, laneRef{key: e, l: l})
	}
	return slot
}

// advance drops the lane's head and every canceled entry queued right behind
// it — a lane's head is therefore always live — and restores the lane's place
// among the shard's non-empty lanes. The old head's slot is the caller's to
// recycle; the skipped ones are recycled here.
func (l *Lane) advance() {
	sh := l.sh
	l.q[l.head].slot.queued = false
	for l.head++; l.head < len(l.q) && l.q[l.head].slot.canceled; l.head++ {
		slot := l.q[l.head].slot
		slot.queued = false
		sh.recycle(slot)
		sh.stats.LanePops++
		sh.stats.DeadPops++
	}
	if l.head < len(l.q) {
		sh.laneSift(l.pos, laneRef{key: l.q[l.head], l: l})
		return
	}
	last := len(sh.lanes) - 1
	moved := sh.lanes[last]
	sh.lanes[last] = laneRef{}
	sh.lanes = sh.lanes[:last]
	if l.pos < last {
		sh.laneSift(l.pos, moved)
	}
}

// laneSift puts x at its place in sh.lanes — a 4-ary min-heap of the non-empty
// lanes by head entry, each lane tracking its index — starting from the vacant
// index i.
func (sh *Shard) laneSift(i int, x laneRef) {
	q := sh.lanes
	for i > 0 {
		p := (i - 1) / 4
		if !entryLess(&x.key, &q[p].key) {
			break
		}
		q[i] = q[p]
		q[i].l.pos = i
		i = p
	}
	for {
		m := 4*i + 1
		if m >= len(q) {
			break
		}
		for c, end := m+1, min(m+4, len(q)); c < end; c++ {
			if entryLess(&q[c].key, &q[m].key) {
				m = c
			}
		}
		if !entryLess(&q[m].key, &x.key) {
			break
		}
		q[i] = q[m]
		q[i].l.pos = i
		i = m
	}
	q[i] = x
	x.l.pos = i
}

// top returns the shard's next entry — the smaller of the heap top and the
// earliest lane head — and the lane it heads (nil for the heap's), or nil
// when nothing is queued.
func (sh *Shard) top() (*heapEntry, *Lane) {
	var e *heapEntry
	if len(sh.heap) > 0 {
		e = &sh.heap[0]
	}
	if len(sh.lanes) > 0 {
		if first := &sh.lanes[0]; e == nil || entryLess(&first.key, e) {
			return &first.key, first.l
		}
	}
	return e, nil
}
