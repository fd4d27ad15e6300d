// Package fault is the deterministic fault-schedule subsystem: faults are
// explicit event lists — sandbox kills and warm-pool spot reclaims at fixed
// instants, straggler-slowdown / storage-brownout / cold-start-spike windows
// over fixed intervals — validated once and then queried or compiled onto
// the DES kernel. Nothing in a schedule draws randomness at query time, so
// the same schedule against the same seed reproduces the same run byte for
// byte at every shard and worker count (the macro-chaos acceptance matrix).
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
//     instead of a panic.
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
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// instant reports whether the kind fires at one instant (At) rather than
// holding over a window (From, To).
func (k Kind) instant() bool { return k == KillSandbox || k == ReclaimWarm }

// Event is one fault. Instant kinds use At and Count; window kinds use
// [From, To) with Factor (and, for Brownout, ErrorRate).
type Event struct {
	Kind Kind

	At    float64 // instant kinds: when the fault fires
	Count int     // instant kinds: how many sandboxes

	From, To  float64 // window kinds: half-open active interval
	Factor    float64 // window kinds: latency/compute multiplier (>= 1)
	ErrorRate float64 // Brownout: deterministic failed-op fraction in [0, 1]
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

// Schedule is a validated, time-sorted fault event list. The zero value and
// nil are both valid empty schedules; every query is nil-safe, so a
// *Schedule can thread through configuration untouched.
type Schedule struct {
	events []Event
}

// New validates events and returns them as a schedule sorted by effect
// time. Every time, factor and rate must be finite: a NaN passes every range
// check below and would reach the kernel or the trainer's clock as is.
// Windows of the same kind must not overlap: each query then has at most one
// active window per kind, so the compiled start/end events and the direct
// time queries always agree.
func New(events ...Event) (*Schedule, error) {
	evs := make([]Event, len(events))
	copy(evs, events)
	for i, e := range evs {
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
		if e.Factor < 1 {
			return nil, fmt.Errorf("fault: %s event %d: Factor %g, want >= 1", e.Kind, i, e.Factor)
		}
		if e.Kind == Brownout && (e.ErrorRate < 0 || e.ErrorRate > 1) {
			return nil, fmt.Errorf("fault: brownout event %d: ErrorRate %g, want in [0, 1]", i, e.ErrorRate)
		}
		if e.Kind != Brownout && e.ErrorRate != 0 {
			return nil, fmt.Errorf("fault: %s event %d: ErrorRate is brownout-only", e.Kind, i)
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

// Active reports whether the schedule holds any events. The trainer swaps
// its synthetic dice-roll failure model for the schedule only when Active:
// attaching an empty schedule leaves every result bit-identical.
func (s *Schedule) Active() bool { return s != nil && len(s.events) > 0 }

// factorAt scans for the kind's window covering t. Schedules are sorted by
// start time, so the scan stops at the first window opening after t; with
// non-overlapping same-kind windows at most one can match. The per-epoch
// decision path queries this several times per epoch, so it must stay
// allocation-free.
func (s *Schedule) factorAt(kind Kind, t float64) float64 {
	if s == nil {
		return 1
	}
	for _, e := range s.events {
		if e.start() > t {
			break
		}
		if e.Kind != kind || t >= e.To {
			continue
		}
		return e.Factor
	}
	return 1
}

// StragglerFactor returns the compute-time multiplier active at t (1 when
// no straggler window covers t).
func (s *Schedule) StragglerFactor(t float64) float64 { return s.factorAt(Straggler, t) }

// ColdSpikeFactor returns the cold-start multiplier active at t.
func (s *Schedule) ColdSpikeFactor(t float64) float64 { return s.factorAt(ColdSpike, t) }

// BrownoutAt returns the storage state at t: the latency multiplier, the
// deterministic error rate, and whether a brownout window covers t.
func (s *Schedule) BrownoutAt(t float64) (latFactor, errRate float64, active bool) {
	if s == nil {
		return 1, 0, false
	}
	for _, e := range s.events {
		if e.From > t {
			break
		}
		if e.Kind == Brownout && t < e.To {
			return e.Factor, e.ErrorRate, true
		}
	}
	return 1, 0, false
}

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

// RetryPolicy bounds how the trainer responds to injected storage errors: at
// most MaxAttempts tries per operation with exponential backoff between them. Exhausting the attempts is not an error — callers
// degrade gracefully (checkpoint-less mode with a Degraded flag).
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per operation (>= 1).
	MaxAttempts int
	// BaseBackoff is the wait before the second attempt, in seconds;
	// attempt k waits BaseBackoff * 2^(k-1).
	BaseBackoff float64
	// MaxBackoff caps any single wait (0 = uncapped).
	MaxBackoff float64
}

// DefaultRetryPolicy returns the calibration the trainer uses: four
// attempts, 0.25 s initial backoff, 4 s cap.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseBackoff: 0.25, MaxBackoff: 4}
}

// OrDefault returns the policy, or DefaultRetryPolicy for the zero value.
func (p RetryPolicy) OrDefault() RetryPolicy {
	if p.MaxAttempts <= 0 {
		return DefaultRetryPolicy()
	}
	return p
}

// Backoff returns the wait after failed attempt number `attempt` (0-based):
// BaseBackoff doubled per attempt, clamped to MaxBackoff.
func (p RetryPolicy) Backoff(attempt int) float64 {
	b := p.BaseBackoff
	for i := 0; i < attempt; i++ {
		b *= 2
		if p.MaxBackoff > 0 && b >= p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if p.MaxBackoff > 0 && b > p.MaxBackoff {
		return p.MaxBackoff
	}
	return b
}
