package fault

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

// fuzzSpecial are the values a float field decodes to from its last bytes:
// the ones a range check can miss, and the edges of the valid ranges.
var fuzzSpecial = [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -0.25, 1e300, 0.999, 1}

// fuzzValue maps one byte to a float field: most bytes to a quarter-second
// grid over [0, 62), the last ones to fuzzSpecial.
func fuzzValue(b byte) float64 {
	if n := 256 - len(fuzzSpecial); int(b) < n {
		return float64(b) / 4
	}
	return fuzzSpecial[int(b)-(256-len(fuzzSpecial))]
}

// fuzzEvents decodes data seven bytes to an event: kind (mod 7, so one kind
// in seven is unknown), At, Count (signed), From, To, Factor, and ErrorRate — 0 for
// a byte below 128, else (b-128)/100, which runs past 1.
func fuzzEvents(data []byte) []Event {
	var evs []Event
	for ; len(data) >= 7 && len(evs) < 64; data = data[7:] {
		rate := 0.0
		if data[6] >= 128 {
			rate = float64(data[6]-128) / 100
		}
		evs = append(evs, Event{
			Kind: Kind(data[0] % 7), At: fuzzValue(data[1]), Count: int(int8(data[2])),
			From: fuzzValue(data[3]), To: fuzzValue(data[4]), Factor: fuzzValue(data[5]), ErrorRate: rate,
		})
	}
	return evs
}

// FuzzFaultSchedule: New either refuses an event list with a "fault:" error,
// or returns a schedule whose every query is panic-free and in range, whose
// instants NextInstant walks each exactly once in time order, and whose
// compiled kernel events — one per instant, two per window but none per
// crash window — all fire. The seed corpus under testdata/fuzz holds a valid
// mix of five kinds, a crash window, an unknown kind, overlapping windows
// and a NaN field.
func FuzzFaultSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		evs := fuzzEvents(data)
		s, err := New(evs...)
		if err != nil {
			if s != nil || !strings.HasPrefix(err.Error(), "fault:") {
				t.Fatalf("New(%+v) = %v, %q: want a nil schedule and a fault: error", evs, s, err)
			}
			return
		}
		probes := []float64{-1, 0, math.Inf(1)}
		instants, crashes := map[Event]int{}, 0
		for _, e := range evs {
			for _, x := range []float64{e.At, e.From, e.To} {
				probes = append(probes, x, math.Nextafter(x, math.Inf(-1)))
			}
			if e.Kind.instant() {
				instants[e]++
			}
			if e.Kind == Crash {
				crashes++
			}
		}
		for _, at := range probes {
			if x := s.StragglerFactor(at); !(x >= 1) {
				t.Fatalf("StragglerFactor(%g) = %g, want >= 1", at, x)
			}
			if x := s.ColdSpikeFactor(at); !(x >= 1) {
				t.Fatalf("ColdSpikeFactor(%g) = %g, want >= 1", at, x)
			}
			if _, rate, _ := s.BrownoutAt(at); !(rate >= 0 && rate <= 1) {
				t.Fatalf("BrownoutAt(%g) rate = %g, want in [0, 1]", at, rate)
			}
			if p := s.CrashRate(at); !(p >= 0 && p <= 1) {
				t.Fatalf("CrashRate(%g) = %g, want in [0, 1]", at, p)
			}
		}
		last, walked := math.Inf(-1), 0
		for cursor := -1; walked <= len(evs); walked++ {
			ev, next, ok := s.NextInstant(cursor, math.Inf(1))
			if !ok {
				break
			}
			if cursor = next; !ev.Kind.instant() || ev.At < last || instants[ev] == 0 {
				t.Fatalf("NextInstant step %d gave %+v after At %g; the instants left to see are %v", walked, ev, last, instants)
			}
			last = ev.At
			instants[ev]--
		}
		for ev, n := range instants {
			if n != 0 {
				t.Fatalf("walking NextInstant from -1 missed %+v %d times", ev, n)
			}
		}
		k := sim.New(1)
		calls := 0
		count := func() { calls++ }
		n := Compile(s, k.Main(), 0, Ops{
			Kill:      func(int) { count() },
			Reclaim:   func(int) { count() },
			Straggler: func(float64) { count() },
			Brownout:  func(float64, float64) { count() },
			ColdSpike: func(float64) { count() },
		})
		k.Run()
		if calls != n || k.EventsFired() != uint64(n) {
			t.Fatalf("Compile returned %d, the ops saw %d calls and the kernel fired %d events", n, calls, k.EventsFired())
		}
		// With every op set, each instant compiles to one kernel event and each
		// window but a crash window to two: an accepted event that nothing
		// acts on shows here.
		if want := 2*(len(evs)-crashes) - walked; n != want {
			t.Fatalf("Compile scheduled %d events for %d events, %d of them instants and %d crash windows; want %d",
				n, len(evs), walked, crashes, want)
		}
	})
}
