package sim

// The kernel against its specification: sorted streams wait in FIFO lanes
// beside the heap, canceled entries leave a lane early and the heap when
// popped, and nothing observable depends on where an entry waited. One op
// interpreter drives the kernel and the container/heap reference — which has
// one queue and no lanes — through the same byte-coded program (schedules on
// the heap and on lanes, batches, posts from several sender shards, cancels —
// stale, repeated, of a lane's oldest entry and from inside callbacks — Step
// and RunUntil), checking the shard's queue invariants and the fate of every
// canceled entry after every operation; the random tests and FuzzKernelOps
// both feed it.

import (
	"fmt"
	"math"
	"testing"
)

// checkShard asserts the queue invariants of a shard: every queued entry's
// slot knows where it is queued, the heap order holds, and every non-empty
// lane — sh.lanes holds exactly those, as a heap by head entry — is sorted
// behind a live head.
func checkShard(t testing.TB, sh *Shard) {
	t.Helper()
	for i := range sh.heap {
		e := &sh.heap[i]
		if !e.slot.queued || e.slot.lane != nil {
			t.Fatalf("shard %d: heap[%d] points at a slot not marked queued on the heap", sh.idx, i)
		}
		if i > 0 && entryLess(e, &sh.heap[(i-1)/2]) {
			t.Fatalf("shard %d: heap order violated at %d", sh.idx, i)
		}
	}
	for i, r := range sh.lanes {
		l := r.l
		if l.pos != i || l.head >= len(l.q) || r.key != l.q[l.head] {
			t.Fatalf("shard %d: lanes[%d] has pos %d, %d entries queued and key %+v", sh.idx, i, l.pos, len(l.q)-l.head, r.key)
		}
		if i > 0 && entryLess(&r.key, &sh.lanes[(i-1)/4].key) {
			t.Fatalf("shard %d: lane-heap order violated at %d", sh.idx, i)
		}
		if r.key.slot.canceled {
			t.Fatalf("shard %d: lanes[%d] is headed by a canceled entry", sh.idx, i)
		}
		for j := l.head; j < len(l.q); j++ {
			if e := &l.q[j]; !e.slot.queued || e.slot.lane != l {
				t.Fatalf("shard %d: lanes[%d] entry %d points at a slot not marked queued there", sh.idx, i, j)
			} else if j > l.head && entryLess(e, &l.q[j-1]) {
				t.Fatalf("shard %d: lanes[%d] out of order at %d", sh.idx, i, j)
			}
		}
	}
}

// queuedCanceled counts the canceled entries still queued on sh: those waiting
// in its heap for their time to come, and in a lane for the head to reach them.
func queuedCanceled(sh *Shard) int {
	n := 0
	for _, e := range sh.heap {
		if e.slot.canceled {
			n++
		}
	}
	for _, r := range sh.lanes {
		for _, e := range r.l.q[r.l.head:] {
			if e.slot.canceled {
				n++
			}
		}
	}
	return n
}

// deadLedger follows every canceled entry a shard still carries to its end:
// dropped, its slot recycled and its handle stale, when its queue pops it.
type deadLedger struct {
	queued  []Event // canceled while queued, not yet seen dropped
	dropped uint64
}

// cancel cancels ev, owned by sh, and checks the shard and the ledger. Only
// the Cancel of a live entry that stays queued leaves one behind to follow: not
// a stale or repeated one, not an event canceling itself from its own
// callback, not a lane's head, which goes on the spot.
func (d *deadLedger) cancel(t testing.TB, sh *Shard, ev Event) {
	t.Helper()
	slot := ev.slot
	stays := slot.gen == ev.gen && slot.queued && !slot.canceled && (slot.lane == nil || slot.lane.q[slot.lane.head].slot != slot)
	ev.Cancel()
	if stays {
		d.queued = append(d.queued, ev)
	}
	checkShard(t, sh)
	d.check(t, sh)
}

// check requires every followed entry to be either still queued and marked, or
// stale — popped and recycled without firing, which the trace comparison with
// the reference confirms — and the two groups to be exactly the canceled
// entries a scan of the queues finds and the pops the shard counted as dead.
func (d *deadLedger) check(t testing.TB, sh *Shard) {
	t.Helper()
	n := 0
	for _, ev := range d.queued {
		switch slot := ev.slot; {
		case slot.gen != ev.gen:
			d.dropped++
		case slot.canceled && slot.queued:
			d.queued[n] = ev
			n++
		default:
			t.Fatalf("shard %d: a canceled entry left its queue without being recycled, or was revived (canceled=%v queued=%v)", sh.idx, slot.canceled, slot.queued)
		}
	}
	d.queued = d.queued[:n]
	if scan := queuedCanceled(sh); scan != n {
		t.Fatalf("shard %d: %d canceled entries queued, %d canceled handles not yet stale", sh.idx, scan, n)
	}
	if st := sh.QueueStats(); st.DeadPops != d.dropped {
		t.Fatalf("shard %d: DeadPops = %d, %d canceled entries went stale at a pop", sh.idx, st.DeadPops, d.dropped)
	}
}

// opKernel is what an op program needs of a kernel. Everything lands on the
// main shard. Handles are numbered in schedule order; batch entries and posts
// get none.
type opKernel interface {
	// schedule queues on the heap (lane 0) or through lane 1..opLanes.
	schedule(lane int, at Time, pri int, fn func())
	batch(evs []BatchEvent)
	// post sends through sender shard from's outbox, between runs; postSelf
	// through the main shard's own, from a callback.
	post(from int, at Time, pri int, fn func())
	postSelf(at Time, pri int, fn func())
	cancel(h int)
	handles() int
	// probe reports whether handle h is still due to fire and, if so, when.
	probe(h int) (live bool, at Time)
	step() bool
	runUntil(limit Time)
	now() Time
	idleClock() Time // the clock of the last shard: a sender's, if there are any
	fired() uint64
	pendingLive() int // queued or posted, and not canceled
}

const (
	opLanes     = 3
	opLookahead = 2.0
)

// optKernel drives the real kernel, checking the main shard after every call.
type optKernel struct {
	t     testing.TB
	s     *Simulation
	lanes [opLanes]*Lane
	hs    []Event
	dead  deadLedger
}

func newOptKernel(t testing.TB, shards int) *optKernel {
	k := &optKernel{t: t, s: New(1)}
	k.s.EnsureShards(shards)
	k.s.SetLookahead(opLookahead)
	for i := range k.lanes {
		k.lanes[i] = k.s.main.NewLane()
	}
	return k
}

func (k *optKernel) schedule(lane int, at Time, pri int, fn func()) {
	if lane == 0 {
		k.hs = append(k.hs, k.s.SchedulePriority(at, pri, fn))
	} else {
		k.hs = append(k.hs, k.lanes[lane-1].Schedule(at, pri, fn))
	}
	checkShard(k.t, k.s.main)
}
func (k *optKernel) batch(evs []BatchEvent) {
	k.s.main.ScheduleBatch(evs)
	checkShard(k.t, k.s.main)
}
func (k *optKernel) post(from int, at Time, pri int, fn func()) {
	k.s.Shard(from%k.s.NumShards()).Post(k.s.main, at, pri, fn)
}
func (k *optKernel) postSelf(at Time, pri int, fn func()) { k.s.main.Post(k.s.main, at, pri, fn) }
func (k *optKernel) cancel(h int)                         { k.dead.cancel(k.t, k.s.main, k.hs[h]) }
func (k *optKernel) handles() int                         { return len(k.hs) }
func (k *optKernel) probe(h int) (bool, Time) {
	ev := k.hs[h]
	if ev.slot.gen != ev.gen {
		if ev.At() != 0 || ev.Canceled() {
			k.t.Fatalf("stale handle %d reports At=%v Canceled=%v", h, ev.At(), ev.Canceled())
		}
		return false, 0
	}
	return !ev.Canceled(), ev.At()
}
func (k *optKernel) step() bool {
	ok := k.s.Step()
	checkShard(k.t, k.s.main)
	k.dead.check(k.t, k.s.main)
	return ok
}
func (k *optKernel) runUntil(limit Time) {
	k.s.RunUntil(limit)
	checkShard(k.t, k.s.main)
	k.dead.check(k.t, k.s.main)
}
func (k *optKernel) now() Time        { return k.s.Now() }
func (k *optKernel) idleClock() Time  { return k.s.shards[len(k.s.shards)-1].now }
func (k *optKernel) fired() uint64    { return k.s.EventsFired() }
func (k *optKernel) pendingLive() int { return k.s.Pending() - queuedCanceled(k.s.main) }

// refOpKernel drives the container/heap reference, which never drops a
// canceled entry before its time comes and has one queue: a post between runs
// waits in its sender's outbox and is scheduled when the next Step or RunUntil
// starts, in (sender shard, send order) order; a post from a callback is
// scheduled on the spot (the interpreter gives those a priority band of their
// own, so at which window barrier the kernel numbers them cannot matter).
type refOpKernel struct {
	s      *refSim
	hs     []*refEvent
	outbox [][]BatchEvent // per sender shard
	clamp  Time           // the latest finite RunUntil limit: every idle shard's clock
}

func (k *refOpKernel) schedule(_ int, at Time, pri int, fn func()) {
	k.hs = append(k.hs, k.s.schedule(at, pri, fn))
}
func (k *refOpKernel) batch(evs []BatchEvent) {
	for _, e := range evs {
		k.s.schedule(e.At, e.Pri, e.Fn)
	}
}
func (k *refOpKernel) post(from int, at Time, pri int, fn func()) {
	from %= len(k.outbox)
	k.outbox[from] = append(k.outbox[from], BatchEvent{At: at, Pri: pri, Fn: fn})
}
func (k *refOpKernel) postSelf(at Time, pri int, fn func()) { k.s.schedule(at, pri, fn) }
func (k *refOpKernel) flush() {
	for i, posts := range k.outbox {
		k.batch(posts)
		k.outbox[i] = posts[:0]
	}
}
func (k *refOpKernel) cancel(h int) { k.s.cancel(k.hs[h]) }
func (k *refOpKernel) handles() int { return len(k.hs) }
func (k *refOpKernel) probe(h int) (bool, Time) {
	if e := k.hs[h]; !e.fired && !e.canceled {
		return true, e.at
	}
	return false, 0
}
func (k *refOpKernel) step() bool {
	k.flush()
	return k.s.step()
}
func (k *refOpKernel) runUntil(limit Time) {
	k.flush()
	k.s.runUntil(limit)
	if !math.IsInf(float64(limit), 1) && limit > k.clamp {
		k.clamp = limit
	}
}
func (k *refOpKernel) now() Time { return k.s.now }
func (k *refOpKernel) idleClock() Time {
	if len(k.outbox) == 1 {
		return k.s.now
	}
	return k.clamp
}
func (k *refOpKernel) fired() uint64 { return k.s.fired }
func (k *refOpKernel) pendingLive() int {
	n := k.s.live
	for _, posts := range k.outbox {
		n += len(posts)
	}
	return n
}

// Op codes (the low four bits of an op's first byte; the codes in between
// schedule and cancel too, so arbitrary bytes mostly do those). The high four
// bits pick the variant: which queue a schedule goes through, which sender and
// delay a post has, whether a recent-cancel takes a lane's oldest entry.
const (
	opSchedule     = 0  // ..3: delay, priority, callback; variant%4 is the lane (0: the heap)
	opBatch        = 4  // count, then delay, priority, callback per entry
	opCancel       = 5  // ..11: 16-bit distance back from the latest handle, modulo cancelWindow
	opCancelRecent = 12 // how far back from the latest handle; variant >= 8: lane 1+variant%3's oldest instead
	opStep         = 13
	opRunUntil     = 14 // how far
	opPost         = 15 // delay, priority, callback; variant%4 is the sender shard, variant/4 the delay class

	maxBatch     = 8
	cancelWindow = 4096
	eventBytes   = 5 // a callback: behaviour, 16-bit cancel target, child delay and priority

	// Lanes 1 and 2 are what lanes are for — a constant hold, short and long, so
	// keys arrive sorted but for falling priorities at one instant; lane 3 takes
	// the op's own random delay, so most of its pushes fall back to the heap.
	laneHoldShort = 7
	laneHoldLong  = 600
	// A callback's post has this much added to its priority: the band of its own.
	postSelfBand = 10
)

// variant builds an op's first byte from its code and variant.
func variant(op, v int) byte { return byte(op | v<<4) }

// Callback behaviours of a scheduled event, decoded with it.
const (
	actCancelSelf      = 4 // cancels its own, already popped, handle
	actCancelSelfTwice = 5
	actCancelOther     = 6
	actCancelOtherTwo  = 7 // the same other handle, twice
	actSpawn           = 8 // a child: target%4 says on the heap, on lane 1, on lane 3, or posted to itself
	numActs            = 10
)

// opRecord is one line of an op program's trace: an event firing (its id; a
// child's is its parent's negated) or, with id 0, the state after an op,
// including what two handles — the last one canceled and one picked by the
// trace length — say about their events.
type opRecord struct {
	id        int
	now, idle Time
	fired     uint64
	pending   int
	live      [2]bool
	at        [2]Time
}

// runOps interprets prog on k and returns the firing trace, with the state
// after every op. Everything an event will do is decoded when it is
// scheduled, so the program reads the same on both kernels.
func runOps(k opKernel, prog []byte) []opRecord {
	var trace []opRecord
	lastCancel := -1
	record := func(id int) {
		r := opRecord{id: id, now: k.now(), idle: k.idleClock(), fired: k.fired(), pending: k.pendingLive()}
		if n := k.handles(); id == 0 && n > 0 {
			for i, h := range [2]int{max(lastCancel, 0), len(trace) * 7919 % n} {
				if r.live[i], r.at[i] = k.probe(h); !r.live[i] {
					r.at[i] = 0 // a canceled event's time is the kernel's to keep or forget
				}
			}
		}
		trace = append(trace, r)
	}
	pc := 0
	next := func() int {
		if pc >= len(prog) {
			return 0
		}
		b := prog[pc]
		pc++
		return int(b)
	}
	next16 := func() int { return next()<<8 | next() }
	cancel := func(h int) {
		k.cancel(h)
		lastCancel = h
	}
	// A cancel reaches cancelWindow handles back: far enough to hit fired
	// and dropped ones, near enough that long programs keep hitting live ones.
	cancelAny := func(target int) {
		if n := k.handles(); n > 0 {
			cancel(n - 1 - target%min(n, cancelWindow))
		}
	}
	// oldest[l] lists the handles scheduled through lane l in order, for
	// cancel-the-oldest: a lane head unless it fired or fell back to the heap.
	var oldest [opLanes + 1][]int
	schedule := func(lane int, delay Time, pri int, fn func()) {
		switch lane {
		case 1:
			delay = laneHoldShort
		case 2:
			delay = laneHoldLong
		}
		oldest[lane] = append(oldest[lane], k.handles())
		k.schedule(lane, k.now()+delay, pri, fn)
	}
	ids := 0
	// event decodes one callback; self is the handle it will get, or -1.
	event := func(self int) func() {
		ids++
		id, act, target, dt, pri := ids, next()%numActs, next16(), Time(next())/4, next()%3-1
		return func() {
			record(id)
			switch act {
			case actCancelSelf, actCancelSelfTwice:
				if self >= 0 {
					cancel(self)
					if act == actCancelSelfTwice {
						cancel(self)
					}
				}
			case actCancelOther:
				cancelAny(target)
			case actCancelOtherTwo:
				cancelAny(target)
				cancelAny(target)
			case actSpawn:
				child := func() { record(-id) }
				if where := target % 4; where == 3 {
					k.postSelf(k.now()+opLookahead+dt, pri+postSelfBand, child)
				} else {
					schedule([3]int{0, 1, 3}[where], dt, pri, child)
				}
			}
		}
	}
	for pc < len(prog) {
		b := next()
		switch c, v := b%16, b/16; {
		case c < opBatch:
			delay, pri := Time(next()), next()%3-1
			schedule(v%4, delay, pri, event(k.handles()))
		case c == opBatch:
			evs := make([]BatchEvent, next()%maxBatch)
			for i := range evs {
				evs[i] = BatchEvent{At: k.now() + Time(next()), Pri: next()%3 - 1, Fn: event(-1)}
			}
			k.batch(evs)
		case c < opCancelRecent:
			cancelAny(next16())
		case c == opCancelRecent:
			back := next()
			if l := 1 + v%3; v >= 8 {
				if q := oldest[l]; len(q) > 0 {
					cancel(q[0])
					oldest[l] = q[1:]
				}
			} else if n := k.handles(); n > 0 {
				// One of the latest handles: most likely still pending.
				cancel(n - 1 - back%min(n, 256))
			}
		case c == opStep:
			k.step()
		case c == opRunUntil:
			k.runUntil(k.now() + Time(next())/256)
		default:
			// Senders other than the main shard run nothing, so their clocks are
			// never ahead of the main shard's and its lookahead bound covers theirs.
			delay := [4]Time{opLookahead, opLookahead, 40 * opLookahead, opLookahead + Time(next())/8}[v/4]
			k.post(v%4, k.now()+delay, next()%3-1, event(-1))
		}
		record(0)
	}
	k.runUntil(Time(math.Inf(1)))
	record(0)
	return trace
}

// opWeight is one row of an op mix: an op code, a bit set of the variants
// (high-nibble values) to draw from, 0 for any, the row's weight, and whether
// a schedule's priority byte is pinned to priority 0 rather than drawn.
type opWeight struct {
	op, variants, weight int
	flatPri              bool
}

// appendOps appends n ops drawn from mix, each with random parameter bytes.
func appendOps(prog []byte, rng *Rand, n int, mix []opWeight) []byte {
	total := 0
	for _, w := range mix {
		total += w.weight
	}
	for i := 0; i < n; i++ {
		r := rng.Intn(total)
		var w opWeight
		for _, w = range mix {
			if r -= w.weight; r < 0 {
				break
			}
		}
		v := rng.Intn(16)
		for w.variants != 0 && w.variants&(1<<v) == 0 {
			v = rng.Intn(16)
		}
		prog = append(prog, variant(w.op, v))
		params := 0
		switch w.op {
		case opSchedule, opPost:
			params = 2 + eventBytes
		case opBatch:
			count := rng.Intn(maxBatch)
			prog = append(prog, byte(count))
			params = count * (2 + eventBytes)
		case opCancel:
			params = 2
		case opCancelRecent, opRunUntil:
			params = 1
		}
		for j := 0; j < params; j++ {
			prog = append(prog, byte(rng.Intn(256)))
		}
		if w.flatPri {
			prog[len(prog)-params+1] = 1
		}
	}
	return prog
}

// Variant sets for appendOps.
const (
	onHeap      = 1<<0 | 1<<4 | 1<<8 | 1<<12
	onLane1     = onHeap << 1
	onLane2     = onHeap << 2
	onLane3     = onHeap << 3
	oldestLane1 = 1<<9 | 1<<12 | 1<<15
	oldestLane2 = 1<<10 | 1<<13
	recent      = 0x00ff
)

// laneProgram returns n ops of one of the lane mixes the seed corpus carries:
// sorted keys through lanes 1 and 2, unsorted ones through lane 3, FIFO
// cancel-the-oldest churn on the long hold, and posts from four sender shards
// in every delay class — each with heap traffic and random cancels mixed in.
func laneProgram(rng *Rand, kind string, n int) []byte {
	mixes := map[string][]opWeight{
		"lane-monotone": {{opSchedule, onLane1, 25, true}, {opSchedule, onLane2, 15, true}, {op: opSchedule, variants: onHeap, weight: 10},
			{op: opCancel, weight: 10}, {op: opCancelRecent, variants: recent, weight: 15}, {op: opStep, weight: 15}, {op: opRunUntil, weight: 10}},
		"lane-fallback": {{op: opSchedule, variants: onLane3, weight: 30}, {op: opSchedule, variants: onLane1, weight: 10},
			{op: opSchedule, variants: onHeap, weight: 5}, {op: opBatch, weight: 2},
			{op: opCancel, weight: 15}, {op: opCancelRecent, variants: recent, weight: 40}, {op: opStep, weight: 5}, {op: opRunUntil, weight: 8}},
		"lane-cancel-head-churn": {{opSchedule, onLane2, 30, true}, {op: opCancelRecent, variants: oldestLane2, weight: 27},
			{opSchedule, onLane1, 8, true}, {op: opCancelRecent, variants: oldestLane1, weight: 5}, {op: opSchedule, variants: onHeap, weight: 5},
			{op: opCancel, weight: 10}, {op: opStep, weight: 5}, {op: opRunUntil, weight: 10}},
		"post-multi-sender": {{op: opPost, weight: 40}, {op: opSchedule, weight: 25}, {op: opCancel, weight: 10}, {op: opCancelRecent, weight: 40},
			{op: opStep, weight: 5}, {op: opRunUntil, weight: 10}},
	}
	return appendOps(nil, rng, n, mixes[kind])
}

// runOpsBoth runs prog on the kernel — with the one shard whose RunUntil is
// the plain drain loop, and with four, posts coming from all of them — and on
// the reference, and requires the same trace, event for event; it returns
// what the main shard's queues counted, on one shard.
func runOpsBoth(t testing.TB, prog []byte) (stats QueueStats) {
	t.Helper()
	for _, shards := range []int{4, 1} {
		opt := newOptKernel(t, shards)
		got := runOps(opt, prog)
		want := runOps(&refOpKernel{s: &refSim{}, outbox: make([][]BatchEvent, shards)}, prog)
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("%d shards: trace diverges at %d: %+v, reference %+v", shards, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%d shards: trace has %d entries, reference %d", shards, len(got), len(want))
		}
		sh := opt.s.main
		if len(sh.heap) != 0 || len(opt.dead.queued) != 0 || len(sh.lanes) != 0 || opt.s.Pending() != 0 {
			t.Fatalf("%d shards, after the final drain: %d entries on the heap, %d canceled handles not stale, %d lanes queued, Pending = %d",
				shards, len(sh.heap), len(opt.dead.queued), len(sh.lanes), opt.s.Pending())
		}
		if st := sh.QueueStats(); st.LanePops+st.HeapPops != sh.fired+st.DeadPops {
			t.Fatalf("%d shards: %+v does not add up to %d events fired", shards, st, sh.fired)
		}
		stats = sh.QueueStats()
	}
	return stats
}

// TestLanesMatchReferenceHeap: the lane mixes fire event for event like the
// reference, which has no lanes, and each drives what it is named after.
func TestLanesMatchReferenceHeap(t *testing.T) {
	for kind, driven := range map[string]func(st QueueStats) bool{
		"lane-monotone": func(st QueueStats) bool { return st.LanePops > 20*st.Fallbacks },
		"lane-fallback": func(st QueueStats) bool {
			return st.DeadPops > 0 && st.Fallbacks > st.LanePushes/4 && st.LanePops > st.LanePushes/8
		},
		// Most pushes left their lane through a Cancel of its head.
		"lane-cancel-head-churn": func(st QueueStats) bool { return st.LanePushes-st.LanePops-st.Fallbacks > st.LanePushes/2 },
		"post-multi-sender": func(st QueueStats) bool {
			return st.DeadPops > 0 && st.Fallbacks > st.LanePushes/8 && st.LanePops > st.LanePushes/8
		},
	} {
		for seed := uint64(1); seed <= 4; seed++ {
			if st := runOpsBoth(t, laneProgram(NewRand(seed), kind, 3000)); !driven(st) {
				t.Errorf("%s, seed %d: the queues counted %+v: the mix missed its target", kind, seed, st)
			}
		}
	}
}

// FuzzKernelOps decodes arbitrary bytes into the same op mix and compares
// firing order with the reference heap. The seed corpus under testdata/fuzz
// is cancel-heavy heap programs — a prefill of plain events, three in five of
// them canceled, then a mix in which time moves slowly so the canceled pile up
// queued — at several heap sizes, and laneProgram output of every kind.
func FuzzKernelOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1<<13 {
			t.Skip("the per-op heap scan makes longer programs slow, not more interesting")
		}
		runOpsBoth(t, prog)
	})
}

// TestCancelCountsOnlyQueuedEntries: a callback canceling its own (already
// popped) event, and a second Cancel of the same event, leave nothing to drop.
func TestCancelCountsOnlyQueuedEntries(t *testing.T) {
	s := New(1)
	sh := s.main
	var self Event
	self = s.Schedule(1, func() {
		self.Cancel()
		self.Cancel()
		checkShard(t, sh)
	})
	other := s.Schedule(2, func() {})
	other.Cancel()
	other.Cancel()
	checkShard(t, sh)
	if n := queuedCanceled(sh); n != 1 {
		t.Fatalf("%d canceled entries queued after canceling one queued event twice, want 1", n)
	}
	s.Run()
	checkShard(t, sh)
	if st := sh.QueueStats(); st.DeadPops != 1 || s.EventsFired() != 1 {
		t.Fatalf("after Run: DeadPops = %d, fired = %d; want 1 and 1", st.DeadPops, s.EventsFired())
	}
}

// holdWorkload is the warm-pool pattern on every actor's own shard: each
// step schedules timeouts — one short, the rest a long hold ahead — and
// cancels the batch from four steps earlier, so most die queued with nearly
// all of their hold to go while some short ones fire first; every fifth step posts to a neighbour, whose
// handler cancels one of its own pending timeouts. Returns one trace per
// actor.
func holdWorkload(w actorWorld, seed uint64, actors int) [][]string {
	const steps, perStep, hold, lag = 150, 6, 100.0, 4
	rngs := make([]*Rand, actors)
	traces := make([][]string, actors)
	pending := make([][][]func(), actors) // per actor, per step: cancel funcs
	for a := range rngs {
		rngs[a] = NewRand(seed ^ uint64(a*104729+1))
	}
	record := func(a int, kind string, k int) {
		traces[a] = append(traces[a], fmt.Sprintf("%s%d@%.9f", kind, k, float64(w.now(a))))
	}
	var step func(a, k int)
	step = func(a, k int) {
		record(a, "s", k)
		if k >= steps {
			return
		}
		var cancels []func()
		for i := 0; i < perStep; i++ {
			at := w.now(a) + Time(hold*(0.5+rngs[a].Float64()))
			if i == 0 {
				at = w.now(a) + Time(3*rngs[a].Float64())
			}
			cancels = append(cancels, w.scheduleCancelable(a, at, a*1_000_000+100_000+k*perStep+i, func() { record(a, "t", k*perStep+i) }))
		}
		pending[a] = append(pending[a], cancels)
		if k >= lag {
			for _, cancel := range pending[a][k-lag] {
				cancel() // some already fired: a stale no-op
			}
		}
		w.scheduleSelf(a, w.now(a)+Time(0.2+rngs[a].Float64()), a*1_000_000+k+1, func() { step(a, k+1) })
		if k%5 == 2 {
			to := (a + 1) % actors
			at := w.now(a) + Time(actorLookahead+rngs[a].Float64())
			w.post(a, to, at, 10_000_000+to*100_000+a*1_000+k, func() {
				record(to, "m", k)
				if n := len(pending[to]); n > 0 {
					pending[to][n-1][k%perStep]()
				}
			})
		}
	}
	for a := 0; a < actors; a++ {
		w.scheduleSelf(a, Time(rngs[a].Float64()), a*1_000_000, func() { step(a, 0) })
	}
	w.run()
	return traces
}

// TestCancelAcrossShards: cancels on every shard, of heap and of lane entries,
// through the sequential merge and through parallel windows — the latter is a
// data race under -race if a Cancel touches anything but its own shard — leave
// each actor's trace identical to the reference's.
func TestCancelAcrossShards(t *testing.T) {
	const actors = 6
	for seed := uint64(1); seed <= 2; seed++ {
		refW := &refWorld{s: &refSim{}}
		ref := holdWorkload(refW, seed, actors)
		for _, cfg := range [][2]int{{1, 1}, {3, 1}, {6, 1}, {3, 2}, {6, 2}} {
			w := newShardedWorld(seed, cfg[0], cfg[1])
			w.t = t
			got := holdWorkload(w, seed, actors)
			for a := range ref {
				if fmt.Sprint(got[a]) != fmt.Sprint(ref[a]) {
					t.Fatalf("seed %d shards=%d workers=%d: actor %d's trace differs from the reference", seed, cfg[0], cfg[1], a)
				}
			}
			if w.fired() != refW.fired() {
				t.Fatalf("seed %d shards=%d workers=%d: fired %d, reference %d", seed, cfg[0], cfg[1], w.fired(), refW.fired())
			}
			for i := range cfg[0] {
				if st := w.s.Shard(i).QueueStats(); st.DeadPops == 0 {
					t.Errorf("seed %d shards=%d workers=%d: no canceled entry was dropped at a pop on shard %d", seed, cfg[0], cfg[1], i)
				}
			}
		}
	}
}
