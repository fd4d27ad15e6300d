package storage

import (
	"errors"

	"repro/internal/fault"
)

// ErrInjected is the sentinel a Faulty store returns for an injected
// failure. Callers distinguish it from real corruption with errors.Is and
// answer with their retry policy, not a panic.
var ErrInjected = errors.New("storage: injected fault")

// Faulty wraps a Store with deterministic error injection for brownout
// windows: every rate-th operation fails (a fault.Gate accumulator, no
// randomness), so a schedule + seed reproduces the exact same sequence of
// failed Puts on every run and shard layout. The wrapped store is
// untouched by failed operations — an injected Put writes nothing.
type Faulty struct {
	st   *Store
	gate fault.Gate
	rate float64
}

// NewFaulty wraps st with an error gate at rate 0 (no injection).
func NewFaulty(st *Store) *Faulty { return &Faulty{st: st} }

// SetErrorRate sets the injected failure rate in [0, 1]; out-of-range
// values are clamped and NaN counts as 0. Changing the rate keeps the gate's
// accumulator, so a brownout window's failures stay proportional to the ops
// inside it.
func (f *Faulty) SetErrorRate(rate float64) {
	if !(rate > 0) {
		rate = 0
	} else if rate > 1 {
		rate = 1
	}
	f.rate = rate
}

// TryPut stores vec under key, or fails deterministically per the error
// rate without writing anything.
func (f *Faulty) TryPut(key string, vec []float64) error {
	if f.gate.Fail(f.rate) {
		return ErrInjected
	}
	f.st.Put(key, vec)
	return nil
}
