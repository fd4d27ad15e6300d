package obs

import "sync"

// Event is one recorded trace event. Span events have Dur > 0 (or a span
// explicitly closed with zero duration); instants have Instant set.
// Timestamps and durations are in seconds on the timeline the emitting
// component lives on: the DES clock, or a job's own timeline.
type Event struct {
	Time    float64 // start time, seconds
	Dur     float64 // duration, seconds (0 for instants)
	Track   string  // Perfetto thread/track name, e.g. "job[0]" or "faas"
	Cat     string  // category, e.g. "trainer", "scheduler", "faas"
	Name    string  // event name, e.g. "epoch", "decision"
	Args    []Arg   // key=value details
	Instant bool
}

// Tracer records events in emission order, each under the timestamp its
// caller supplies. All methods are safe on a nil receiver (no-op); the zero
// value is ready to use, and safe for concurrent use — every caller today
// owns its tracer, so the mutex never contends.
type Tracer struct {
	mu     sync.Mutex
	events []Event
}

// SpanAt records a completed span [start, start+dur) on track.
func (t *Tracer) SpanAt(start, dur float64, track, cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, Event{Time: start, Dur: dur, Track: track, Cat: cat, Name: name, Args: args})
	t.mu.Unlock()
}

// InstantAt records a point event at time at on track.
func (t *Tracer) InstantAt(at float64, track, cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, Event{Time: at, Track: track, Cat: cat, Name: name, Args: args, Instant: true})
	t.mu.Unlock()
}

// Events returns a copy of the recorded events in emission order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}
