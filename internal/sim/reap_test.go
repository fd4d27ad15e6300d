package sim

// Tests for the reap pass: canceled entries leave the heap once they
// outnumber the live ones, and nothing observable depends on whether or when
// that happened. One op interpreter drives the kernel and the container/heap
// reference through the same byte-coded program (schedules, batches,
// cancels — stale, repeated and from inside callbacks — Step and RunUntil),
// checking the shard's dead count against a scan of its heap after every
// operation; the random tests and FuzzKernelOps both feed it.

import (
	"fmt"
	"math"
	"testing"
)

// checkShard asserts the invariants the reap pass adds to a shard: dead is
// exactly the number of canceled entries in the heap, every entry's slot
// knows it is queued, and the heap order holds.
func checkShard(t testing.TB, sh *Shard) {
	t.Helper()
	dead := 0
	for i := range sh.heap {
		e := &sh.heap[i]
		if !e.slot.queued {
			t.Fatalf("shard %d: heap[%d] points at a slot not marked queued", sh.idx, i)
		}
		if e.slot.canceled {
			dead++
		}
		if i > 0 && entryLess(e, &sh.heap[(i-1)/2]) {
			t.Fatalf("shard %d: heap order violated at %d", sh.idx, i)
		}
	}
	if dead != sh.dead {
		t.Fatalf("shard %d: dead = %d, a scan of the heap finds %d", sh.idx, sh.dead, dead)
	}
}

// cancelChecked cancels ev, owned by sh, and checks the shard; a Cancel
// that counted must leave the dead within the floor or the live count. It
// reports whether a reap pass ran.
func cancelChecked(t testing.TB, sh *Shard, ev Event) (reaped bool) {
	t.Helper()
	before := sh.dead
	ev.Cancel()
	checkShard(t, sh)
	if live := len(sh.heap) - sh.dead; sh.dead != before && sh.dead > reapFloor && sh.dead > live {
		t.Fatalf("shard %d: Cancel left %d dead entries over %d live ones", sh.idx, sh.dead, live)
	}
	return sh.dead < before
}

// opKernel is what an op program needs of a kernel. Handles are numbered in
// schedule order; batch entries get none.
type opKernel interface {
	schedule(at Time, pri int, fn func())
	batch(evs []BatchEvent)
	cancel(h int)
	handles() int
	step() bool
	runUntil(limit Time)
	now() Time
	fired() uint64
}

// optKernel drives the real kernel, checking the shard after every call.
type optKernel struct {
	t     testing.TB
	s     *Simulation
	hs    []Event
	reaps int
}

func (k *optKernel) schedule(at Time, pri int, fn func()) {
	k.hs = append(k.hs, k.s.SchedulePriority(at, pri, fn))
	checkShard(k.t, k.s.main)
}
func (k *optKernel) batch(evs []BatchEvent) {
	k.s.main.ScheduleBatch(evs)
	checkShard(k.t, k.s.main)
}
func (k *optKernel) cancel(h int) {
	if cancelChecked(k.t, k.s.main, k.hs[h]) {
		k.reaps++
	}
}
func (k *optKernel) handles() int { return len(k.hs) }
func (k *optKernel) step() bool {
	ok := k.s.Step()
	checkShard(k.t, k.s.main)
	return ok
}
func (k *optKernel) runUntil(limit Time) {
	k.s.RunUntil(limit)
	checkShard(k.t, k.s.main)
}
func (k *optKernel) now() Time     { return k.s.Now() }
func (k *optKernel) fired() uint64 { return k.s.EventsFired() }

// refOpKernel drives the container/heap reference, which never drops a
// canceled entry before its time comes.
type refOpKernel struct {
	s  *refSim
	hs []*refEvent
}

func (k *refOpKernel) schedule(at Time, pri int, fn func()) {
	k.hs = append(k.hs, k.s.schedule(at, pri, fn))
}
func (k *refOpKernel) batch(evs []BatchEvent) {
	for _, e := range evs {
		k.s.schedule(e.At, e.Pri, e.Fn)
	}
}
func (k *refOpKernel) cancel(h int)        { k.hs[h].canceled = true }
func (k *refOpKernel) handles() int        { return len(k.hs) }
func (k *refOpKernel) step() bool          { return k.s.step() }
func (k *refOpKernel) runUntil(limit Time) { k.s.runUntil(limit) }
func (k *refOpKernel) now() Time           { return k.s.now }
func (k *refOpKernel) fired() uint64       { return k.s.fired }

// Op codes (the low four bits of an op's first byte; the codes in between
// schedule and cancel too, so arbitrary bytes mostly do those).
const (
	opSchedule     = 0  // ..3: delay, priority, callback
	opBatch        = 4  // count, then delay, priority, callback per entry
	opCancel       = 5  // ..11: 16-bit distance back from the latest handle, modulo cancelWindow
	opCancelRecent = 12 // how far back from the latest handle
	opStep         = 13
	opRunUntil     = 14 // ..15: how far

	maxBatch     = 8
	cancelWindow = 4096
	eventBytes   = 5 // a callback: behaviour, 16-bit cancel target, child delay and priority
)

// Callback behaviours of a scheduled event, decoded with it.
const (
	actCancelSelf      = 4 // cancels its own, already popped, handle
	actCancelSelfTwice = 5
	actCancelOther     = 6
	actCancelOtherTwo  = 7 // the same other handle, twice
	actSpawn           = 8 // schedules a child
	numActs            = 10
)

// opRecord is one line of an op program's trace: an event firing (its id; a
// child's is its parent's negated) or, with id 0, the state after an op.
type opRecord struct {
	id    int
	now   Time
	fired uint64
}

// runOps interprets prog on k and returns the firing trace, with the clock
// and fired count after every op. Everything an event will do is decoded when
// it is scheduled, so the program reads the same on both kernels.
func runOps(k opKernel, prog []byte) []opRecord {
	var trace []opRecord
	record := func(id int) { trace = append(trace, opRecord{id, k.now(), k.fired()}) }
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
	// A cancel reaches cancelWindow handles back: far enough to hit fired
	// and reaped ones, near enough that long programs keep hitting live ones.
	cancelAny := func(target int) {
		if n := k.handles(); n > 0 {
			k.cancel(n - 1 - target%min(n, cancelWindow))
		}
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
					k.cancel(self)
					if act == actCancelSelfTwice {
						k.cancel(self)
					}
				}
			case actCancelOther:
				cancelAny(target)
			case actCancelOtherTwo:
				cancelAny(target)
				cancelAny(target)
			case actSpawn:
				k.schedule(k.now()+dt, pri, func() { record(-id) })
			}
		}
	}
	for pc < len(prog) {
		switch c := next() % 16; {
		case c < opBatch:
			at, pri := k.now()+Time(next()), next()%3-1
			k.schedule(at, pri, event(k.handles()))
		case c == opBatch:
			evs := make([]BatchEvent, next()%maxBatch)
			for i := range evs {
				evs[i] = BatchEvent{At: k.now() + Time(next()), Pri: next()%3 - 1, Fn: event(-1)}
			}
			k.batch(evs)
		case c < opCancelRecent:
			cancelAny(next16())
		case c == opCancelRecent:
			// One of the latest handles: most likely still pending.
			if n := k.handles(); n > 0 {
				k.cancel(n - 1 - next()%min(n, 256))
			}
		case c == opStep:
			k.step()
		default:
			k.runUntil(k.now() + Time(next())/256)
		}
		record(0)
	}
	k.runUntil(Time(math.Inf(1)))
	record(0)
	return trace
}

// opProgram returns a program that schedules prefill plain events, cancels
// three in five of them — one reap pass at that heap size, if it is over the
// floor — and then runs n ops of a cancel-heavy mix in which time moves
// slowly, so the dead pile up queued rather than popping.
func opProgram(rng *Rand, prefill, n int) []byte {
	var prog []byte
	emit := func(op byte, params int) {
		prog = append(prog, op|byte(rng.Intn(16))<<4)
		for i := 0; i < params; i++ {
			prog = append(prog, byte(rng.Intn(256)))
		}
	}
	for i := 0; i < prefill; i++ {
		prog = append(prog, opSchedule, byte(rng.Intn(256)), byte(rng.Intn(3)), 0, 0, 0, 0, 0)
	}
	for _, back := range rng.Perm(prefill)[:prefill*3/5] {
		prog = append(prog, opCancel, byte(back>>8), byte(back))
	}
	for i := 0; i < n; i++ {
		switch r := rng.Intn(100); {
		case r < 20:
			emit(opSchedule, 2+eventBytes)
		case r < 22:
			count := rng.Intn(maxBatch)
			prog = append(prog, opBatch, byte(count))
			for j := 0; j < count*(2+eventBytes); j++ {
				prog = append(prog, byte(rng.Intn(256)))
			}
		case r < 52:
			emit(opCancel, 2)
		case r < 88:
			emit(opCancelRecent, 1)
		case r < 92:
			emit(opStep, 0)
		default:
			emit(opRunUntil, 1)
		}
	}
	return prog
}

// runOpsBoth runs prog on the kernel and on the reference and requires the
// same trace, event for event; it returns how many reap passes ran.
func runOpsBoth(t testing.TB, prog []byte) int {
	t.Helper()
	opt := &optKernel{t: t, s: New(1)}
	got := runOps(opt, prog)
	want := runOps(&refOpKernel{s: &refSim{}}, prog)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("trace diverges at %d: %+v, reference %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("trace has %d entries, reference %d", len(got), len(want))
	}
	if sh := opt.s.main; len(sh.heap) != 0 || sh.dead != 0 {
		t.Fatalf("after the final drain: %d entries queued, dead = %d", len(sh.heap), sh.dead)
	}
	return opt.reaps
}

// TestReapMatchesReferenceHeap: cancel-heavy random op mixes over heaps far
// below, around and far above the reap floor fire event for event like the
// reference, which never reaps, with the dead count exact after every op.
func TestReapMatchesReferenceHeap(t *testing.T) {
	for _, tc := range []struct {
		prefill, n int
		reaps      bool
	}{
		{0, reapFloor, false}, // fewer events than the floor: no pass can start
		{reapFloor / 2, 4000, true},
		{reapFloor, 4000, true},
		{2 * reapFloor, 4000, true},
		{50 * reapFloor, 20000, true},
	} {
		for seed := uint64(1); seed <= 4; seed++ {
			reaps := runOpsBoth(t, opProgram(NewRand(seed), tc.prefill, tc.n))
			if (reaps > 0) != tc.reaps {
				t.Errorf("prefill %d, %d ops, seed %d: %d reap passes, want any = %v", tc.prefill, tc.n, seed, reaps, tc.reaps)
			}
		}
	}
}

// FuzzKernelOps decodes arbitrary bytes into the same op mix and compares
// firing order with the reference heap. The seed corpus under testdata/fuzz
// is opProgram output that reaps at several heap sizes.
func FuzzKernelOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1<<13 {
			t.Skip("the per-op heap scan makes longer programs slow, not more interesting")
		}
		runOpsBoth(t, prog)
	})
}

// TestCancelCountsOnlyQueuedEntries: a callback canceling its own (already
// popped) event, and a second Cancel of the same event, count nothing.
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
	if sh.dead != 1 {
		t.Fatalf("dead = %d after canceling one queued event twice, want 1", sh.dead)
	}
	s.Run()
	checkShard(t, sh)
	if sh.dead != 0 || s.EventsFired() != 1 {
		t.Fatalf("after Run: dead = %d, fired = %d; want 0 and 1", sh.dead, s.EventsFired())
	}
}

// reapedHandle returns a handle whose canceled event a reap pass has already
// dropped, with one live event left queued behind it.
func reapedHandle(t *testing.T, s *Simulation) Event {
	t.Helper()
	s.Schedule(1, func() {})
	evs := make([]Event, 2*reapFloor)
	for i := range evs {
		evs[i] = s.Schedule(Time(2+i), func() {})
	}
	for _, ev := range evs {
		ev.Cancel()
	}
	if s.Pending() >= len(evs) {
		t.Fatalf("%d entries pending after canceling %d of %d: no reap pass ran", s.Pending(), len(evs), len(evs)+1)
	}
	return evs[0]
}

// TestReapedHandleIsStale: once a pass dropped the event, its handle behaves
// like that of a fired one — and the slot's next tenant is out of its reach.
func TestReapedHandleIsStale(t *testing.T) {
	s := New(1)
	stale := reapedHandle(t, s)
	if stale.Canceled() || stale.At() != 0 {
		t.Fatalf("reaped handle: Canceled=%v At=%v, want false and 0", stale.Canceled(), stale.At())
	}
	ran := 0
	for i := 0; i < 2*reapFloor; i++ { // reuses every reaped slot
		s.Schedule(5, func() { ran++ })
	}
	stale.Cancel()
	checkShard(t, s.main)
	s.Run()
	if ran != 2*reapFloor {
		t.Fatalf("%d of %d events on reused slots ran after a stale Cancel", ran, 2*reapFloor)
	}
}

// TestReapedHandleStrictModePanics: under SetStrictCancel every use of a
// reaped handle panics.
func TestReapedHandleStrictModePanics(t *testing.T) {
	for name, use := range map[string]func(Event){
		"Cancel":   Event.Cancel,
		"Canceled": func(e Event) { e.Canceled() },
	} {
		s := New(1)
		stale := reapedHandle(t, s)
		s.SetStrictCancel(true)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a reaped handle did not panic in strict mode", name)
				}
			}()
			use(stale)
		}()
	}
}

// holdWorkload is the warm-pool pattern on every actor's own shard: each
// step schedules timeouts — one short, the rest a long hold ahead — and
// cancels the batch from four steps earlier, so most die queued with nearly
// all of their hold to go (crossing the reap floor every dozen steps) while
// some short ones fire first; every fifth step posts to a neighbour, whose
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

// TestReapAcrossShards: cancels (and so reap passes) on every shard, through
// the sequential merge and through parallel windows — the latter is a data
// race under -race if a pass touches anything but its own shard — leave each
// actor's trace identical to the reference's.
func TestReapAcrossShards(t *testing.T) {
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
			for i, n := range w.reaps {
				if n == 0 {
					t.Errorf("seed %d shards=%d workers=%d: no reap pass on shard %d", seed, cfg[0], cfg[1], i)
				}
			}
		}
	}
}

// TestCancelChurnReusesSlots: under steady cancel churn (the benchmark's
// hold model) the arena stops growing once the pattern is in steady state,
// and queue length stays within live + dead-bound of it.
func TestCancelChurnReusesSlots(t *testing.T) {
	s := New(1)
	cancelChurn(s, 20_000) // 2,000 s: three holds, long past warm-up
	warm := s.main.allocs
	if limit := uint64(2*churnLive + reapFloor + arenaChunk); warm > limit {
		t.Fatalf("%d slots carved for %d live events, want <= %d", warm, churnLive, limit)
	}
	cancelChurn(s, 200_000)
	if s.main.allocs != warm {
		t.Fatalf("arena grew from %d to %d slots under steady churn", warm, s.main.allocs)
	}
	checkShard(t, s.main)
}
