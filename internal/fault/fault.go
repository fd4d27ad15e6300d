// Package fault is the deterministic fault-schedule subsystem: faults are
// explicit event lists — sandbox kills and warm-pool spot reclaims at fixed
// instants, straggler-slowdown / storage-brownout / cold-start-spike / crash
// windows over fixed intervals — validated once and then queried or compiled
// onto the DES kernel. Nothing in this package draws randomness, so the same
// schedule against the same seed reproduces the same run byte for byte at
// every shard and worker count (the macro-chaos acceptance matrix). A Crash
// window only states a probability; the trainer draws against it from its
// own seeded stream.
//
// A schedule stresses three different guarantees of the reproduction:
//
//   - instant events (KillSandbox, ReclaimWarm) mutate real faas.Platform
//     state — in-flight and warm counts drop mid-epoch — and the trainer
//     reacts through its existing checkpoint/restart machinery;
//   - window events (Straggler, Brownout, ColdSpike) inflate the
//     observations the Algorithm-2 controller plans from, so re-planning
//     shows up in the decision log as ordinary path= entries;
//   - Brownout error rates drive the trainer's bounded retry/backoff policy
//     into graceful degradation (checkpoint-less mode with a Degraded flag)
//     instead of a panic;
//   - Crash windows are the trainer's synthetic failure rate: each epoch
//     attempt inside one crashes with the window's per-function probability.
package fault

import (
	"fmt"
	"math"
	"sort"
)

// Kind identifies one fault event type.
type Kind uint8

const (
	// KillSandbox terminates Count in-flight sandboxes at time At: the BSP
	// barrier aborts and the epoch retries from the last checkpoint.
	KillSandbox Kind = iota
	// ReclaimWarm removes Count warm sandboxes from the pool at time At
	// (spot reclamation of the idle fleet): later invocations cold-start.
	ReclaimWarm
	// Straggler multiplies compute time by Factor over [From, To).
	Straggler
	// Brownout degrades storage over [From, To): transfer/sync latency is
	// multiplied by Factor and a deterministic fraction ErrorRate of
	// storage operations fail.
	Brownout
	// ColdSpike multiplies cold-start latency by Factor over [From, To)
	// (platform incident windows).
	ColdSpike
	// Crash makes each function crash in an epoch attempt with probability
	// ErrorRate over [From, To) (timeouts, OOMs, platform preemptions).
	Crash
)

func (k Kind) String() string {
	switch k {
	case KillSandbox:
		return "kill"
	case ReclaimWarm:
		return "reclaim"
	case Straggler:
		return "straggler"
	case Brownout:
		return "brownout"
	case ColdSpike:
		return "cold-spike"
	case Crash:
		return "crash"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// instant reports whether the kind fires at one instant (At) rather than
// holding over a window (From, To).
func (k Kind) instant() bool { return k == KillSandbox || k == ReclaimWarm }

// Event is one fault. Instant kinds use At and Count; window kinds use
// [From, To) with Factor (Brownout also ErrorRate; Crash only ErrorRate).
type Event struct {
	Kind Kind

	At    float64 // instant kinds: when the fault fires
	Count int     // instant kinds: how many sandboxes

	From, To  float64 // window kinds: half-open active interval
	Factor    float64 // window kinds but Crash: latency/compute multiplier (>= 1)
	ErrorRate float64 // Brownout: failed-op fraction; Crash: per-function crash probability
}

// start returns the time the event takes effect, the sort key of a schedule.
func (e Event) start() float64 {
	if e.Kind.instant() {
		return e.At
	}
	return e.From
}

// KillAt returns a KillSandbox event: n in-flight sandboxes die at time t.
func KillAt(t float64, n int) Event { return Event{Kind: KillSandbox, At: t, Count: n} }

// ReclaimAt returns a ReclaimWarm event: n warm sandboxes are reclaimed at t.
func ReclaimAt(t float64, n int) Event { return Event{Kind: ReclaimWarm, At: t, Count: n} }

// StragglerWindow returns a compute-slowdown window.
func StragglerWindow(from, to, factor float64) Event {
	return Event{Kind: Straggler, From: from, To: to, Factor: factor}
}

// BrownoutWindow returns a storage-degradation window: latency scaled by
// latFactor, a deterministic errRate fraction of operations failing.
func BrownoutWindow(from, to, latFactor, errRate float64) Event {
	return Event{Kind: Brownout, From: from, To: to, Factor: latFactor, ErrorRate: errRate}
}

// ColdSpikeWindow returns a cold-start-latency spike window.
func ColdSpikeWindow(from, to, factor float64) Event {
	return Event{Kind: ColdSpike, From: from, To: to, Factor: factor}
}

// CrashWindow returns a window in which each function crashes in an epoch
// attempt with probability rate.
func CrashWindow(from, to, rate float64) Event {
	return Event{Kind: Crash, From: from, To: to, ErrorRate: rate}
}

// Schedule is a validated, time-sorted fault event list. The zero value and
// nil are both valid empty schedules; every query is nil-safe, so a
// *Schedule can thread through configuration untouched.
type Schedule struct {
	events []Event
}

// New validates events and returns them as a schedule sorted by effect
// time. Every kind must be one of the six above: no query or Compile acts
// on any other, so an unknown kind would be silently inert. Every time,
// factor and rate must be finite:
// a NaN passes every range check below and would reach the kernel or the
// trainer's clock as is. Windows of the same kind must not overlap: each
// query then has at most one active window per kind, so the compiled
// start/end events and the direct time queries always agree.
func New(events ...Event) (*Schedule, error) {
	evs := make([]Event, len(events))
	copy(evs, events)
	for i, e := range evs {
		if e.Kind > Crash {
			return nil, fmt.Errorf("fault: %s event %d: unknown kind", e.Kind, i)
		}
		for _, f := range [...]struct {
			name string
			v    float64
		}{{"At", e.At}, {"From", e.From}, {"To", e.To}, {"Factor", e.Factor}, {"ErrorRate", e.ErrorRate}} {
			if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
				return nil, fmt.Errorf("fault: %s event %d: %s %g, want a finite value", e.Kind, i, f.name, f.v)
			}
		}
		if e.Kind.instant() {
			if e.Count <= 0 {
				return nil, fmt.Errorf("fault: %s event %d: Count %d, want > 0", e.Kind, i, e.Count)
			}
			if e.At < 0 {
				return nil, fmt.Errorf("fault: %s event %d: At %g, want >= 0", e.Kind, i, e.At)
			}
			continue
		}
		if !(e.From >= 0 && e.To > e.From) {
			return nil, fmt.Errorf("fault: %s event %d: window [%g, %g) invalid", e.Kind, i, e.From, e.To)
		}
		if e.Kind == Crash && e.Factor != 0 {
			return nil, fmt.Errorf("fault: crash event %d: Factor %g, want 0 (a crash window has no factor)", i, e.Factor)
		}
		if e.Kind != Crash && e.Factor < 1 {
			return nil, fmt.Errorf("fault: %s event %d: Factor %g, want >= 1", e.Kind, i, e.Factor)
		}
		rated := e.Kind == Brownout || e.Kind == Crash
		if rated && (e.ErrorRate < 0 || e.ErrorRate > 1) {
			return nil, fmt.Errorf("fault: %s event %d: ErrorRate %g, want in [0, 1]", e.Kind, i, e.ErrorRate)
		}
		if !rated && e.ErrorRate != 0 {
			return nil, fmt.Errorf("fault: %s event %d: ErrorRate is brownout- and crash-only", e.Kind, i)
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].start() < evs[j].start() })
	for i, e := range evs {
		if e.Kind.instant() {
			continue
		}
		for _, o := range evs[i+1:] {
			if o.Kind != e.Kind || o.From >= e.To {
				continue
			}
			return nil, fmt.Errorf("fault: overlapping %s windows [%g, %g) and [%g, %g)",
				e.Kind, e.From, e.To, o.From, o.To)
		}
	}
	return &Schedule{events: evs}, nil
}

// MustNew is New panicking on invalid events (for fixed literal schedules).
func MustNew(events ...Event) *Schedule {
	s, err := New(events...)
	if err != nil {
		panic(err)
	}
	return s
}

// window returns the kind's window covering t, or the neutral event —
// KillSandbox's zero value with Factor 1, so no window kind and rate 0 —
// when none does. Schedules are sorted by start time, so the scan stops at
// the first event taking effect after t; with non-overlapping same-kind
// windows at most one can match. The per-epoch decision path queries this
// several times per epoch, so it must stay allocation-free.
func (s *Schedule) window(kind Kind, t float64) Event {
	if s != nil {
		for _, e := range s.events {
			if e.start() > t {
				break
			}
			if e.Kind == kind && t < e.To {
				return e
			}
		}
	}
	return Event{Factor: 1}
}

// StragglerFactor returns the compute-time multiplier active at t (1 when
// no straggler window covers t).
func (s *Schedule) StragglerFactor(t float64) float64 { return s.window(Straggler, t).Factor }

// ColdSpikeFactor returns the cold-start multiplier active at t.
func (s *Schedule) ColdSpikeFactor(t float64) float64 { return s.window(ColdSpike, t).Factor }

// BrownoutAt returns the storage state at t: the latency multiplier, the
// deterministic error rate, and whether a brownout window covers t.
func (s *Schedule) BrownoutAt(t float64) (latFactor, errRate float64, active bool) {
	e := s.window(Brownout, t)
	return e.Factor, e.ErrorRate, e.Kind == Brownout
}

// CrashRate returns the per-function crash probability of an epoch attempt
// starting at t (0 when no crash window covers t).
func (s *Schedule) CrashRate(t float64) float64 { return s.window(Crash, t).ErrorRate }

// NextInstant returns the first instant event (kill or reclaim) after index
// cursor that takes effect strictly before `before`, along with its index.
// Callers keep the returned index as the new cursor so each instant fires
// exactly once; start from cursor -1.
func (s *Schedule) NextInstant(cursor int, before float64) (ev Event, idx int, ok bool) {
	if s == nil {
		return Event{}, cursor, false
	}
	for i := cursor + 1; i < len(s.events); i++ {
		e := s.events[i]
		if !e.Kind.instant() {
			continue
		}
		if e.At >= before {
			return Event{}, cursor, false
		}
		return e, i, true
	}
	return Event{}, cursor, false
}

// Gate is the deterministic substitute for a random error source inside
// brownout windows: an accumulator fails exactly every 1/rate-th operation,
// so the failed-op set depends only on the operation sequence, never on a
// random stream or on shard layout. The zero value is ready to use.
type Gate struct {
	acc float64
}

// Fail reports whether the next operation fails under the given error rate,
// advancing the accumulator. A NaN rate counts as 0: added to the accumulator
// it would keep every later, valid rate from ever failing.
func (g *Gate) Fail(rate float64) bool {
	if !(rate > 0) {
		return false
	}
	if rate >= 1 {
		return true
	}
	g.acc += rate
	if g.acc >= 1 {
		g.acc--
		return true
	}
	return false
}

// MaxAttempts bounds how often a storage operation is tried under an
// injected error rate: four tries, with Backoff between them. Exhausting
// the attempts is not an error — callers degrade gracefully
// (checkpoint-less mode with a Degraded flag).
const MaxAttempts = 4

// Backoff returns the wait, in seconds, after failed attempt number k
// (0-based): 0.25·2^k, so the last wait before giving up is 2 s.
func Backoff(k int) float64 { return math.Ldexp(0.25, k) }
