package traffic

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func drain(c Cursor) []float64 {
	var ts []float64
	for {
		t, ok := c.Next()
		if !ok {
			return ts
		}
		ts = append(ts, t)
	}
}

func checkMonotone(t *testing.T, ts []float64, horizon float64) {
	t.Helper()
	prev := -1.0
	for i, x := range ts {
		if x <= prev {
			t.Fatalf("arrival %d at %g not after previous %g", i, x, prev)
		}
		if x >= horizon {
			t.Fatalf("arrival %d at %g >= horizon %g", i, x, horizon)
		}
		prev = x
	}
}

func allKinds(horizon float64) []Config {
	tr := MakeTrace([][]uint32{{3, 0, 7, 1, 0, 4}})
	return []Config{
		{Kind: Poisson, Rate: 2, Horizon: horizon},
		{Kind: Bursty, Rate: 2, Horizon: horizon},
		{Kind: Diurnal, Rate: 2, Horizon: horizon, Period: 120},
		{Kind: TraceReplay, Trace: tr, Horizon: horizon},
	}
}

// TestCursorsMonotoneAndBounded: every kind yields strictly increasing
// times below the horizon and stays exhausted after the first false.
func TestCursorsMonotoneAndBounded(t *testing.T) {
	const horizon = 240
	for _, cfg := range allKinds(horizon) {
		c := cfg.Cursor(sim.NewRand(11))
		ts := drain(c)
		if len(ts) == 0 {
			t.Fatalf("%v: no arrivals", cfg.Kind)
		}
		checkMonotone(t, ts, horizon)
		for i := 0; i < 3; i++ {
			if _, ok := c.Next(); ok {
				t.Fatalf("%v: cursor yielded arrivals after exhaustion", cfg.Kind)
			}
		}
	}
}

// TestCursorsDeterministic: same seed, same sequence; different seed,
// different sequence.
func TestCursorsDeterministic(t *testing.T) {
	for _, cfg := range allKinds(240) {
		a := drain(cfg.Cursor(sim.NewRand(7)))
		b := drain(cfg.Cursor(sim.NewRand(7)))
		if len(a) != len(b) {
			t.Fatalf("%v: same seed, different lengths %d vs %d", cfg.Kind, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: same seed, arrival %d differs: %g vs %g", cfg.Kind, i, a[i], b[i])
			}
		}
		c := drain(cfg.Cursor(sim.NewRand(8)))
		if len(a) == len(c) {
			same := true
			for i := range a {
				if a[i] != c[i] {
					same = false
					break
				}
			}
			if same {
				t.Errorf("%v: different seeds produced identical sequences", cfg.Kind)
			}
		}
	}
}

// TestPoissonMeanRate: over a long horizon the empirical rate and mean
// interarrival converge to the configured rate (fixed seed, loose
// tolerance — this is a sanity bound, not a statistical test).
func TestPoissonMeanRate(t *testing.T) {
	const rate, horizon = 3.0, 20000.0
	ts := drain(NewPoisson(sim.NewRand(1), rate, horizon))
	got := float64(len(ts)) / horizon
	if math.Abs(got-rate)/rate > 0.05 {
		t.Errorf("empirical rate %.3f, want %.1f +-5%%", got, rate)
	}
}

// TestBurstyRateBetweenStates: the MMPP's overall rate lands strictly
// between the calm and burst rates, and bursts make it exceed a plain
// Poisson at the calm rate.
func TestBurstyRateBetweenStates(t *testing.T) {
	const calm, factor, horizon = 1.0, BurstFactor, 50000.0
	ts := drain(NewBursty(sim.NewRand(2), calm, horizon))
	got := float64(len(ts)) / horizon
	// Dwell means 540/60 put the time-average rate at
	// (540·1 + 60·8)/600 = 1.7.
	want := (MeanCalm*calm + MeanBurst*calm*factor) / (MeanCalm + MeanBurst)
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("empirical MMPP rate %.3f, want about %.2f", got, want)
	}
	if got <= calm || got >= calm*factor {
		t.Errorf("MMPP rate %.3f outside (%.1f, %.1f)", got, calm, calm*factor)
	}
}

// TestDiurnalPeakVsTrough: with a full-cycle horizon, the half-period
// around the sine peak carries visibly more arrivals than the trough
// half.
func TestDiurnalPeakVsTrough(t *testing.T) {
	const base, period = 2.0, 1000.0
	ts := drain(NewDiurnal(sim.NewRand(3), base, period, 0, period))
	var peak, trough int
	for _, x := range ts {
		if x < period/2 {
			peak++ // sin positive on the first half-period
		} else {
			trough++
		}
	}
	if peak < trough*2 {
		t.Errorf("peak half %d arrivals vs trough half %d: diurnal shape missing", peak, trough)
	}
}

// TestTraceCursorCounts: replay emits exactly the per-minute counts, each
// arrival inside its own minute, skipping zero minutes.
func TestTraceCursorCounts(t *testing.T) {
	row := []uint32{2, 0, 5, 1, 0, 0, 3}
	tr := MakeTrace([][]uint32{row})
	ts := drain(NewTraceCursor(sim.NewRand(4), tr, 0, math.Inf(1)))
	if want := int(tr.RowTotal(0)); len(ts) != want {
		t.Fatalf("replayed %d arrivals, want %d", len(ts), want)
	}
	perMinute := make([]uint32, len(row))
	for _, x := range ts {
		m := int(x / 60)
		if m < 0 || m >= len(row) {
			t.Fatalf("arrival at %g outside the trace", x)
		}
		perMinute[m]++
	}
	for m, want := range row {
		if perMinute[m] != want {
			t.Errorf("minute %d: %d arrivals, want %d", m, perMinute[m], want)
		}
	}
	checkMonotone(t, ts, math.Inf(1))
}

// TestTraceCursorHorizonTruncates: a horizon inside the trace cuts the
// replay there.
func TestTraceCursorHorizonTruncates(t *testing.T) {
	tr := MakeTrace([][]uint32{{4, 4, 4}})
	ts := drain(NewTraceCursor(sim.NewRand(4), tr, 0, 60))
	if len(ts) != 4 {
		t.Fatalf("horizon 60 replayed %d arrivals, want the first minute's 4", len(ts))
	}
	checkMonotone(t, ts, 60)
}

// TestCursorNextZeroAlloc: the per-arrival step is allocation-free for
// every kind — the scenarios call it tens of millions of times.
func TestCursorNextZeroAlloc(t *testing.T) {
	for _, cfg := range allKinds(math.MaxFloat64 / 2) {
		cfg := cfg
		if cfg.Kind == TraceReplay {
			// A long synthetic row so the cursor cannot exhaust mid-run.
			row := make([]uint32, 100000)
			for i := range row {
				row[i] = 5
			}
			cfg.Trace = MakeTrace([][]uint32{row})
		}
		c := cfg.Cursor(sim.NewRand(9))
		if n := testing.AllocsPerRun(2000, func() {
			if _, ok := c.Next(); !ok {
				t.Fatalf("%v: cursor exhausted during alloc run", cfg.Kind)
			}
		}); n != 0 {
			t.Errorf("%v: Next allocates %.1f times per call, want 0", cfg.Kind, n)
		}
	}
}

// TestConfigValidate: the front-end validation rejects the obvious
// misconfigurations.
func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Kind: Poisson, Rate: 0, Horizon: 10},
		{Kind: Poisson, Rate: 1, Horizon: 0},
		{Kind: Poisson, Rate: math.Inf(1), Horizon: 10},
		{Kind: Diurnal, Rate: 1, Horizon: 10, Period: -1},
		// Finite rates whose peak overflows: the mean interarrival would be
		// 0 and Next would never advance.
		{Kind: Diurnal, Rate: 1e308, Horizon: 10},
		{Kind: Bursty, Rate: math.MaxFloat64 / 4, Horizon: 10},
		{Kind: TraceReplay, Row: 0}, // empty trace
		{Kind: Kind(200), Rate: 1, Horizon: 10},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid config", cfg)
		}
	}
	ok := Config{Kind: Bursty, Rate: 1, Horizon: 10}
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate(%+v) = %v, want nil (defaults must apply)", ok, err)
	}
}

// TestParseKindRoundTrip covers the flag mapping.
func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{Poisson, Bursty, Diurnal, TraceReplay} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("sawtooth"); err == nil {
		t.Error("ParseKind accepted an unknown kind")
	}
}
