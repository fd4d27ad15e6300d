package cost

import (
	"math"
	"math/rand"
	"testing"
)

// randFrontier builds a strict frontier: strictly ascending Time, strictly
// descending Cost.
func randFrontier(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	t, c := 1+rng.Float64(), 100+100*rng.Float64()
	for i := range pts {
		pts[i] = Point{
			Alloc: Allocation{N: i + 1, MemMB: 512},
			Time:  t,
			Cost:  c,
		}
		t += 0.01 + 2*rng.Float64()
		c -= 0.01 + 2*rng.Float64()
		if c <= 0 {
			c = math.Nextafter(pts[i].Cost, 0) // keep strictly descending, positive
		}
	}
	return pts
}

// TestSelectBinaryMatchesLinear: on randomized strict frontiers and
// randomized (remaining, elapsed, spent, relaxed constraint) queries —
// including exact-boundary and infeasible cases — Select's binary-search
// path must return exactly the index its linear scan returns, for both
// objectives.
func TestSelectBinaryMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 3000; trial++ {
		pts := randFrontier(rng, 1+rng.Intn(40))
		if !Strict(pts) {
			t.Fatal("random frontier should be detected as strict")
		}
		budget, qos := 0.0, 0.0
		if trial%2 == 0 {
			budget = rng.Float64() * 1e5
		} else {
			qos = rng.Float64() * 1e5
		}
		remaining := 1 + rng.Intn(500)
		elapsed := rng.Float64() * 1e4
		spent := rng.Float64() * 1e4
		relax := 1.0
		if rng.Intn(3) == 0 {
			relax = 1.15
		}
		switch rng.Intn(8) {
		case 0:
			// Exact-boundary query: the constraint equals one candidate's
			// consumption bit for bit, probing the > vs >= edge.
			p := pts[rng.Intn(len(pts))]
			if budget > 0 {
				spent = 0
				budget = float64(remaining) * p.Cost
			} else {
				elapsed = 0
				qos = float64(remaining) * p.Time
			}
			relax = 1
		case 1:
			// Infeasible: constraint below every candidate's consumption.
			if budget > 0 {
				budget = 1e-12
			} else {
				qos = 1e-12
			}
		case 2:
			// All feasible.
			if budget > 0 {
				budget = 1e18
			} else {
				qos = 1e18
			}
		}
		gotI, gotOK := Select(pts, true, remaining, elapsed, spent, budget*relax, qos*relax)
		wantI, wantOK := Select(pts, false, remaining, elapsed, spent, budget*relax, qos*relax)
		if gotOK != wantOK || (wantOK && gotI != wantI) {
			t.Fatalf("trial %d (budget=%g qos=%g rem=%d elapsed=%g spent=%g relax=%g):\nbinary=(%d,%v)\nlinear=(%d,%v)\nfrontier=%v",
				trial, budget, qos, remaining, elapsed, spent, relax, gotI, gotOK, wantI, wantOK, pts)
		}
	}
}

// TestSelectBinaryRoundingTies hunts for real r*Cost rounding collisions —
// adjacent representable costs whose scaled values land on the same float —
// and checks the binary path resolves them like the linear scan (first
// index of the tied run).
func TestSelectBinaryRoundingTies(t *testing.T) {
	found := 0
	for _, base := range []float64{1.0, 3.7, 17.3, 123.456} {
		c2 := base
		c1 := math.Nextafter(base, 2*base) // c1 > c2, adjacent floats
		for remaining := 1; remaining <= 2000; remaining++ {
			r := float64(remaining)
			if r*c1 != r*c2 {
				continue
			}
			found++
			pts := []Point{
				{Alloc: Allocation{N: 1}, Time: 1, Cost: c1},
				{Alloc: Allocation{N: 2}, Time: 2, Cost: c2},
			}
			// QoS admits both; the linear scan keeps index 0 (first of the
			// tied run under strict <), so binary must too.
			gotI, gotOK := Select(pts, true, remaining, 0, 0, 0, 1e9)
			wantI, wantOK := Select(pts, false, remaining, 0, 0, 0, 1e9)
			if !wantOK || wantI != 0 || gotOK != wantOK || gotI != wantI {
				t.Fatalf("r=%d c1=%v c2=%v: binary=(%d,%v) linear=(%d,%v)",
					remaining, c1, c2, gotI, gotOK, wantI, wantOK)
			}
		}
	}
	if found == 0 {
		t.Skip("no rounding collision in scan range (walk-back path untested here)")
	}
	t.Logf("exercised %d rounding-tie cases", found)
}
