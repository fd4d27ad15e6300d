// Package traffic generates deterministic arrival processes for
// trace-driven serverless experiments: Poisson, two-state bursty (MMPP),
// diurnal (nonhomogeneous Poisson), and replay of per-minute invocation
// counts parsed from Azure-style trace files.
//
// Every process is exposed as a lazy Cursor that yields one arrival time
// per call. The simulator schedules only the next arrival per tenant, so
// pending-event count and memory stay O(tenants) no matter how long the
// horizon or the trace is — the arrival stream is never materialized.
//
// Determinism: a cursor draws exclusively from the *sim.Rand it was
// constructed with, so per-tenant named streams give every tenant an
// arrival sequence independent of tenant count, shard layout and worker
// count.
package traffic

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Cursor yields successive arrival times (seconds, strictly increasing)
// for one tenant. Next returns ok=false once the process is exhausted —
// past its horizon or, for trace replay, past the end of the trace row.
// After the first false, every subsequent call returns false.
type Cursor interface {
	// Next runs once per arrival — tens of millions of times per scenario —
	// so every implementation must be allocation-free
	// (TestCursorNextZeroAlloc measures each kind).
	Next() (t float64, ok bool)
}

// Kind selects an arrival process.
type Kind uint8

const (
	// Poisson is a homogeneous Poisson process at Config.Rate.
	Poisson Kind = iota
	// Bursty is a two-state Markov-modulated Poisson process: calm
	// periods at Config.Rate punctuated by bursts at Rate×BurstFactor.
	Bursty
	// Diurnal is a nonhomogeneous Poisson process whose rate follows a
	// sinusoidal day/night cycle around Config.Rate.
	Diurnal
	// TraceReplay replays one row of per-minute invocation counts,
	// spreading each minute's arrivals stratified-uniformly inside it.
	TraceReplay
)

// String returns the flag-facing name of the kind.
func (k Kind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	case Diurnal:
		return "diurnal"
	case TraceReplay:
		return "trace"
	}
	return fmt.Sprintf("traffic.Kind(%d)", uint8(k))
}

// ParseKind maps a flag value to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "poisson":
		return Poisson, nil
	case "bursty":
		return Bursty, nil
	case "diurnal":
		return Diurnal, nil
	case "trace":
		return TraceReplay, nil
	}
	return 0, fmt.Errorf("traffic: unknown kind %q (want poisson|bursty|diurnal|trace)", s)
}

// Config describes one tenant's arrival process. Zero values for the
// kind-specific knobs take the documented defaults.
type Config struct {
	Kind    Kind
	Rate    float64 // mean arrivals per second (calm-state rate for Bursty)
	Horizon float64 // stop time in seconds; no arrival at or past it

	// Bursty knobs.
	BurstFactor float64 // burst-state rate multiplier (default 8)
	MeanBurst   float64 // mean burst dwell, seconds (default 60)
	MeanCalm    float64 // mean calm dwell, seconds (default 540)

	// Diurnal knobs: rate(t) = Rate·(1 + Amplitude·sin(2π(t+Phase)/Period)).
	Amplitude float64 // relative swing in [0, 1] (default 0.8)
	Period    float64 // cycle length, seconds (default 86400)
	Phase     float64 // cycle offset, seconds

	// TraceReplay knobs.
	Trace Trace // parsed per-minute counts
	Row   int   // which trace row this tenant replays
}

// withDefaults fills zero-valued knobs.
func (c Config) withDefaults() Config {
	if c.BurstFactor == 0 {
		c.BurstFactor = 8
	}
	if c.MeanBurst == 0 {
		c.MeanBurst = 60
	}
	if c.MeanCalm == 0 {
		c.MeanCalm = 540
	}
	if c.Amplitude == 0 {
		c.Amplitude = 0.8
	}
	if c.Period == 0 {
		c.Period = 86400
	}
	return c
}

// Validate reports whether the config describes a runnable process.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch c.Kind {
	case Poisson, Bursty, Diurnal:
		if !(c.Rate > 0) || math.IsInf(c.Rate, 0) {
			return fmt.Errorf("traffic: rate %v must be positive and finite", c.Rate)
		}
		if !(c.Horizon > 0) || math.IsInf(c.Horizon, 0) {
			return fmt.Errorf("traffic: horizon %v must be positive and finite", c.Horizon)
		}
	case TraceReplay:
		if c.Row < 0 || c.Row >= c.Trace.Rows() {
			return fmt.Errorf("traffic: trace row %d outside [0, %d)", c.Row, c.Trace.Rows())
		}
	default:
		return fmt.Errorf("traffic: unknown kind %d", c.Kind)
	}
	if c.Kind == Bursty && (c.BurstFactor < 1 || c.MeanBurst <= 0 || c.MeanCalm <= 0) {
		return fmt.Errorf("traffic: bursty knobs factor=%v burst=%v calm=%v invalid",
			c.BurstFactor, c.MeanBurst, c.MeanCalm)
	}
	if c.Kind == Diurnal && (c.Amplitude < 0 || c.Amplitude > 1 || c.Period <= 0) {
		return fmt.Errorf("traffic: diurnal knobs amp=%v period=%v invalid", c.Amplitude, c.Period)
	}
	return nil
}

// Cursor builds the arrival cursor for this config, drawing randomness
// from rng. It panics on an invalid config (front-ends validate flag
// input with Validate before building scenarios).
func (c Config) Cursor(rng *sim.Rand) Cursor {
	c = c.withDefaults()
	if err := c.Validate(); err != nil {
		panic(err)
	}
	switch c.Kind {
	case Poisson:
		return NewPoisson(rng, c.Rate, c.Horizon)
	case Bursty:
		return NewBursty(rng, c.Rate, c.Rate*c.BurstFactor, c.MeanCalm, c.MeanBurst, c.Horizon)
	case Diurnal:
		return NewDiurnal(rng, c.Rate, c.Amplitude, c.Period, c.Phase, c.Horizon)
	default:
		return NewTraceCursor(rng, c.Trace, c.Row, c.Horizon)
	}
}

// poisson is a homogeneous Poisson process: i.i.d. exponential
// interarrivals with mean 1/rate.
type poisson struct {
	rng  *sim.Rand
	mean float64 // mean interarrival, seconds
	t    float64
	stop float64
}

// NewPoisson returns a Poisson cursor at rate arrivals/second up to
// horizon seconds.
func NewPoisson(rng *sim.Rand, rate, horizon float64) Cursor {
	return &poisson{rng: rng, mean: 1 / rate, stop: horizon}
}

func (c *poisson) Next() (float64, bool) {
	c.t += c.rng.Exp(c.mean)
	if c.t >= c.stop {
		return 0, false
	}
	return c.t, true
}

// bursty is a two-state MMPP: the process alternates between
// exponentially distributed calm and burst dwells, emitting Poisson
// arrivals at the state's rate. Because exponentials are memoryless, an
// arrival candidate that overshoots the next state switch is discarded
// and redrawn at the new state's rate from the switch instant — the
// standard exact MMPP simulation.
type bursty struct {
	rng      *sim.Rand
	meanIA   [2]float64 // mean interarrival per state: 0=calm, 1=burst
	dwell    [2]float64 // mean dwell per state
	state    int
	t        float64
	switchAt float64
	stop     float64
}

// NewBursty returns an MMPP-2 cursor: calmRate arrivals/s during calm
// dwells (mean meanCalm seconds), burstRate during bursts (mean
// meanBurst), up to horizon.
func NewBursty(rng *sim.Rand, calmRate, burstRate, meanCalm, meanBurst, horizon float64) Cursor {
	c := &bursty{
		rng:    rng,
		meanIA: [2]float64{1 / calmRate, 1 / burstRate},
		dwell:  [2]float64{meanCalm, meanBurst},
		stop:   horizon,
	}
	c.switchAt = rng.Exp(c.dwell[0])
	return c
}

func (c *bursty) Next() (float64, bool) {
	for {
		cand := c.t + c.rng.Exp(c.meanIA[c.state])
		if cand >= c.switchAt {
			c.t = c.switchAt
			if c.t >= c.stop {
				return 0, false
			}
			c.state ^= 1
			c.switchAt = c.t + c.rng.Exp(c.dwell[c.state])
			continue
		}
		c.t = cand
		if c.t >= c.stop {
			return 0, false
		}
		return c.t, true
	}
}

// diurnal is a nonhomogeneous Poisson process generated by
// Lewis-Shedler thinning against the peak rate base·(1+amp): candidates
// arrive at the peak rate and survive with probability rate(t)/peak.
type diurnal struct {
	rng     *sim.Rand
	base    float64
	amp     float64
	period  float64
	phase   float64
	peakIA  float64 // mean interarrival at the peak rate
	peak    float64
	t, stop float64
}

// NewDiurnal returns a sinusoidal-rate cursor:
// rate(t) = base·(1 + amp·sin(2π(t+phase)/period)), up to horizon.
func NewDiurnal(rng *sim.Rand, base, amp, period, phase, horizon float64) Cursor {
	peak := base * (1 + amp)
	return &diurnal{
		rng: rng, base: base, amp: amp, period: period, phase: phase,
		peak: peak, peakIA: 1 / peak, stop: horizon,
	}
}

func (c *diurnal) Next() (float64, bool) {
	for {
		c.t += c.rng.Exp(c.peakIA)
		if c.t >= c.stop {
			return 0, false
		}
		rate := c.base * (1 + c.amp*math.Sin(2*math.Pi*(c.t+c.phase)/c.period))
		if c.rng.Float64()*c.peak <= rate {
			return c.t, true
		}
	}
}

// traceCursor replays one trace row. A minute with count n emits its
// k-th arrival at 60·(minute + (k+u)/n) with u uniform in [0,1):
// stratified positions, strictly increasing within the minute, never
// crossing the minute boundary.
type traceCursor struct {
	rng  *sim.Rand
	row  []uint32
	next int // index of the next minute to load
	cur  int // minute currently being emitted
	k, n uint32
	stop float64
}

// NewTraceCursor returns a cursor replaying trace row `row`, truncated
// at horizon seconds (pass math.Inf(1) or 60×minutes for the full row).
func NewTraceCursor(rng *sim.Rand, tr Trace, row int, horizon float64) Cursor {
	return &traceCursor{rng: rng, row: tr.Row(row), stop: horizon}
}

func (c *traceCursor) Next() (float64, bool) {
	for c.k >= c.n {
		if c.next >= len(c.row) {
			return 0, false
		}
		c.cur = c.next
		c.n = c.row[c.next]
		c.k = 0
		c.next++
	}
	t := 60 * (float64(c.cur) + (float64(c.k)+c.rng.Float64())/float64(c.n))
	c.k++
	if t >= c.stop {
		// Arrivals are monotone, so everything after is past the horizon
		// too; park the cursor in the exhausted state.
		c.next = len(c.row)
		c.k, c.n = 0, 0
		return 0, false
	}
	return t, true
}
