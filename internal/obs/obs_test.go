package obs

import (
	"testing"
)

func TestNilObserverIsNoOp(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer reports enabled")
	}
	// Every path must be callable on the nil receiver without panicking.
	o.Trace().InstantAt(1, "trk", "cat", "ev", F("x", 1))
	o.Trace().SpanAt(0, 1, "trk", "cat", "ev")
	o.Stats().Inc("c")
	o.Stats().Add("c", 2)
	o.Stats().Set("g", 3)
	o.Stats().SetMax("g", 4)
	o.Stats().Observe("h", 5)
	o.Stats().DefineHistogram("h2", []float64{1, 2})
	if got := o.Trace().Len(); got != 0 {
		t.Fatalf("nil tracer Len = %d", got)
	}
	if s := o.Stats().Snapshot(); len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil metrics snapshot not empty: %+v", s)
	}
	var c *Collector
	if c.Scope("x") != nil {
		t.Fatal("nil collector Scope != nil")
	}
	if c.Scopes() != nil {
		t.Fatal("nil collector Scopes != nil")
	}
}

func TestTracerRecordsInOrder(t *testing.T) {
	o := New()
	o.Trace().SpanAt(10, 2.5, "job[0]", "trainer", "epoch", I("epoch", 3), F("loss", 0.25))
	o.Trace().InstantAt(12.5, "job[0]", "scheduler", "decision", S("path", "hold"))
	evs := o.Trace().Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	e0 := evs[0]
	if e0.Time != 10 || e0.Dur != 2.5 || e0.Track != "job[0]" || e0.Cat != "trainer" || e0.Name != "epoch" || e0.Instant {
		t.Fatalf("span event mismatch: %+v", e0)
	}
	if len(e0.Args) != 2 || e0.Args[0].Key != "epoch" || e0.Args[0].Num != 3 || e0.Args[1].Key != "loss" || e0.Args[1].Num != 0.25 {
		t.Fatalf("span args mismatch: %+v", e0.Args)
	}
	e1 := evs[1]
	if !e1.Instant || e1.Time != 12.5 || e1.Args[0].Str != "hold" || !e1.Args[0].IsStr {
		t.Fatalf("instant event mismatch: %+v", e1)
	}
}

func TestArgConstructors(t *testing.T) {
	if v := F("k", 1.5).value(); v != 1.5 {
		t.Fatalf("F value = %v", v)
	}
	if v := I("k", 7).value(); v != 7.0 {
		t.Fatalf("I value = %v", v)
	}
	if v := S("k", "s").value(); v != "s" {
		t.Fatalf("S value = %v", v)
	}
	if v := B("k", true).value(); v != "true" {
		t.Fatalf("B(true) value = %v", v)
	}
	if v := B("k", false).value(); v != "false" {
		t.Fatalf("B(false) value = %v", v)
	}
}

// TestDisabledPathZeroAlloc: with observation off, the idiom instrumented
// hot paths use — guard arg construction behind Enabled() — costs no
// allocation.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var o *Observer
	allocs := testing.AllocsPerRun(100, func() {
		if o.Enabled() {
			o.Trace().InstantAt(1, "trk", "cat", "ev", F("x", 1), I("y", 2))
			o.Stats().Inc("n")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled observer path allocates %v per op, want 0", allocs)
	}
}
