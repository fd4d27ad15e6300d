package fault

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestNewValidatesEvents(t *testing.T) {
	bad := []Event{
		KillAt(10, 0),                  // zero count
		KillAt(-1, 2),                  // negative time
		StragglerWindow(10, 5, 2),      // inverted window
		StragglerWindow(0, 10, 0.5),    // speedup factor
		BrownoutWindow(0, 10, 2, 1.5),  // rate > 1
		BrownoutWindow(0, 10, 2, -0.1), // rate < 0
		{Kind: Straggler, From: 0, To: 5, Factor: 2, ErrorRate: 0.5}, // rate on non-brownout
	}
	for i, e := range bad {
		if _, err := New(e); err == nil {
			t.Errorf("event %d (%+v) accepted, want error", i, e)
		}
	}
	if _, err := New(StragglerWindow(0, 10, 2), StragglerWindow(5, 15, 3)); err == nil {
		t.Error("overlapping same-kind windows accepted")
	}
	if _, err := New(StragglerWindow(0, 10, 2), BrownoutWindow(5, 15, 2, 0.1)); err != nil {
		t.Errorf("overlapping windows of distinct kinds rejected: %v", err)
	}
	if _, err := New(StragglerWindow(0, 10, 2), StragglerWindow(10, 20, 3)); err != nil {
		t.Errorf("adjacent half-open windows rejected: %v", err)
	}
}

// TestNewRejectsNonFiniteFields: NaN is neither below nor above any bound and
// +Inf is a fine upper end of a window, so each would pass the range checks
// and reach the kernel ("non-finite time" panic), the trainer's clock or the
// error gate; New names the kind, the event's index and the field instead.
func TestNewRejectsNonFiniteFields(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		ev    Event
		field string
	}{
		{KillAt(nan, 1), "kill event 1: At"},
		{ReclaimAt(inf, 1), "reclaim event 1: At"},
		{StragglerWindow(nan, 10, 2), "straggler event 1: From"},
		{StragglerWindow(0, inf, 2), "straggler event 1: To"},
		{ColdSpikeWindow(0, nan, 2), "cold-spike event 1: To"},
		{StragglerWindow(0, 10, nan), "straggler event 1: Factor"},
		{BrownoutWindow(0, 10, inf, 0.5), "brownout event 1: Factor"},
		{BrownoutWindow(0, 10, 2, nan), "brownout event 1: ErrorRate"},
		{BrownoutWindow(math.Inf(-1), 10, 2, 0.5), "brownout event 1: From"},
	} {
		_, err := New(KillAt(1, 1), tc.ev)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("New(%+v): error %v, want one naming %q", tc.ev, err, tc.field)
		}
	}
}

func TestNilAndEmptySchedulesAreInert(t *testing.T) {
	for name, s := range map[string]*Schedule{"nil": nil, "empty": MustNew()} {
		if s.Active() {
			t.Errorf("%s schedule Active", name)
		}
		if f := s.StragglerFactor(5); f != 1 {
			t.Errorf("%s StragglerFactor = %g", name, f)
		}
		if lat, rate, on := s.BrownoutAt(5); lat != 1 || rate != 0 || on {
			t.Errorf("%s BrownoutAt = %g %g %v", name, lat, rate, on)
		}
		if _, _, ok := s.NextInstant(-1, math.Inf(1)); ok {
			t.Errorf("%s NextInstant found an event", name)
		}
	}
}

func TestWindowQueries(t *testing.T) {
	s := MustNew(
		StragglerWindow(100, 200, 3),
		ColdSpikeWindow(50, 150, 4),
		BrownoutWindow(120, 180, 2.5, 0.25),
	)
	if f := s.StragglerFactor(99.9); f != 1 {
		t.Errorf("before window: %g", f)
	}
	if f := s.StragglerFactor(100); f != 3 {
		t.Errorf("at From: %g", f)
	}
	if f := s.StragglerFactor(200); f != 1 {
		t.Errorf("at To (half-open): %g", f)
	}
	if f := s.ColdSpikeFactor(149); f != 4 {
		t.Errorf("cold spike: %g", f)
	}
	if lat, rate, on := s.BrownoutAt(150); lat != 2.5 || rate != 0.25 || !on {
		t.Errorf("BrownoutAt(150) = %g %g %v", lat, rate, on)
	}
	if lat, _, on := s.BrownoutAt(180); lat != 1 || on {
		t.Errorf("BrownoutAt(180) = %g %v", lat, on)
	}
}

func TestInstantCursor(t *testing.T) {
	s := MustNew(
		KillAt(300, 1),
		ReclaimAt(100, 5),
		StragglerWindow(0, 1000, 2),
		KillAt(150, 2),
	)
	ev, idx, ok := s.NextInstant(-1, 200)
	if !ok || ev.Kind != ReclaimWarm || ev.At != 100 {
		t.Fatalf("first instant = %+v ok=%v", ev, ok)
	}
	ev, idx, ok = s.NextInstant(idx, 200)
	if !ok || ev.Kind != KillSandbox || ev.At != 150 {
		t.Fatalf("second instant = %+v ok=%v", ev, ok)
	}
	if _, _, ok = s.NextInstant(idx, 200); ok {
		t.Fatal("instant at 300 returned before 200")
	}
	ev, _, ok = s.NextInstant(idx, 1000)
	if !ok || ev.At != 300 {
		t.Fatalf("third instant = %+v ok=%v", ev, ok)
	}
}

func TestGateIsDeterministicAndProportional(t *testing.T) {
	var g Gate
	fails := 0
	const ops, rate = 1000, 0.25
	pattern := make([]bool, ops)
	for i := range pattern {
		pattern[i] = g.Fail(rate)
		if pattern[i] {
			fails++
		}
	}
	if fails != ops*rate {
		t.Errorf("fails = %d, want %g", fails, ops*rate)
	}
	// Same sequence again on a fresh gate: byte-identical decisions. A NaN
	// rate in between fails nothing and leaves the accumulator usable.
	g = Gate{}
	if g.Fail(math.NaN()) {
		t.Error("rate NaN failed an op")
	}
	for i := range pattern {
		if got := g.Fail(rate); got != pattern[i] {
			t.Fatalf("op %d: %v != first run %v", i, got, pattern[i])
		}
	}
	if g.Fail(0) {
		t.Error("rate 0 failed an op")
	}
	if !g.Fail(1) {
		t.Error("rate 1 passed an op")
	}
}

// TestScheduleQueriesZeroAlloc: the trainer puts these queries on the
// per-epoch decision path, several per epoch, so a compiled
// schedule answers every one of them — and the brownout error gate decides —
// without touching the heap.
func TestScheduleQueriesZeroAlloc(t *testing.T) {
	s := MustNew(
		KillAt(300, 1),
		ReclaimAt(100, 5),
		StragglerWindow(100, 200, 3),
		ColdSpikeWindow(50, 150, 4),
		BrownoutWindow(120, 180, 2.5, 0.25),
		KillAt(150, 2),
	)
	var g Gate
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		for now := 0.0; now < 400; now += 25 {
			lat, rate, _ := s.BrownoutAt(now)
			sink += s.StragglerFactor(now) + s.ColdSpikeFactor(now) + lat
			if g.Fail(rate) {
				sink++
			}
		}
		for cursor, ok := -1, true; ok; {
			var ev Event
			ev, cursor, ok = s.NextInstant(cursor, 400)
			sink += ev.At
		}
	}); n != 0 {
		t.Errorf("schedule queries allocate %.1f times per pass, want 0", n)
	}
	if sink == 0 {
		t.Error("the queries saw no fault")
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseBackoff: 0.5, MaxBackoff: 3}
	want := []float64{0.5, 1, 2, 3, 3}
	for i, w := range want {
		if got := p.Backoff(i); got != w {
			t.Errorf("Backoff(%d) = %g, want %g", i, got, w)
		}
	}
	var zero RetryPolicy
	if zero.OrDefault() != DefaultRetryPolicy() {
		t.Error("zero policy does not default")
	}
	if p.OrDefault() != p {
		t.Error("explicit policy overridden by default")
	}
}

func TestCompileDrivesOpsInOrder(t *testing.T) {
	s := sim.New(1)
	sch := MustNew(
		KillAt(50, 2),
		ReclaimAt(10, 3),
		StragglerWindow(20, 60, 2),
		BrownoutWindow(30, 40, 3, 0.5),
		ColdSpikeWindow(45, 55, 4),
	)
	var log []string
	n := Compile(sch, s.Main(), 7, Ops{
		Kill:      func(n int) { log = append(log, "kill") },
		Reclaim:   func(n int) { log = append(log, "reclaim") },
		Straggler: func(f float64) { log = append(log, "strag") },
		Brownout:  func(lat, rate float64) { log = append(log, "brown") },
		ColdSpike: func(f float64) { log = append(log, "cold") },
	})
	if n != 8 {
		t.Fatalf("Compile scheduled %d events, want 8", n)
	}
	s.Run()
	want := []string{"reclaim", "strag", "brown", "brown", "cold", "kill", "cold", "strag"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestCompileSkipsNilOpsAndInactiveSchedules(t *testing.T) {
	s := sim.New(1)
	if n := Compile(nil, s.Main(), 0, Ops{}); n != 0 {
		t.Errorf("nil schedule compiled %d events", n)
	}
	sch := MustNew(KillAt(1, 1), StragglerWindow(2, 3, 2))
	if n := Compile(sch, s.Main(), 0, Ops{Kill: func(int) {}}); n != 1 {
		t.Errorf("nil-ops compile scheduled %d events, want 1", n)
	}
	s.Run()
}
