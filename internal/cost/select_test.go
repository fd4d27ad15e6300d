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

// objective is the value Select minimizes for p and whether p fits the
// constraint, written out from Algorithm 2's definition.
func objective(p Point, remaining int, elapsed, spent, budget, qos float64) (float64, bool) {
	r := float64(remaining)
	if budget > 0 {
		return r * p.Time, spent+r*p.Cost <= budget
	}
	return r * p.Cost, elapsed+r*p.Time <= qos
}

// TestSelectIgnoresCandidateOrder: on randomized candidate sets — strict
// frontiers and arbitrary sets with dominated points — and randomized
// (remaining, elapsed, spent, relaxed constraint) queries, including
// exact-boundary and infeasible ones, Select over a shuffled copy picks the
// same allocation whenever no other feasible point ties the optimum, and
// that allocation is feasible and optimal. A search that relied on the
// frontier's order would pick another point of a shuffled frontier.
func TestSelectIgnoresCandidateOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	checked := 0
	for trial := 0; trial < 3000; trial++ {
		pts := randFrontier(rng, 1+rng.Intn(40))
		if trial%2 == 1 {
			for i := range pts {
				pts[i].Time, pts[i].Cost = 1+100*rng.Float64(), 1+100*rng.Float64()
			}
		}
		budget, qos := 0.0, 0.0
		if trial%4 < 2 {
			budget = rng.Float64() * 1e5
		} else {
			qos = rng.Float64() * 1e5
		}
		remaining := 1 + rng.Intn(500)
		elapsed := rng.Float64() * 1e4
		spent := rng.Float64() * 1e4
		if rng.Intn(3) == 0 {
			budget, qos = budget*1.15, qos*1.15
		}
		switch rng.Intn(8) {
		case 0:
			// Exact-boundary query: the constraint equals one candidate's
			// consumption bit for bit, probing the > vs >= edge.
			p := pts[rng.Intn(len(pts))]
			if budget > 0 {
				spent, budget = 0, float64(remaining)*p.Cost
			} else {
				elapsed, qos = 0, float64(remaining)*p.Time
			}
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
		i, ok := Select(pts, remaining, elapsed, spent, budget, qos)
		var best float64
		if ok {
			var fits bool
			if best, fits = objective(pts[i], remaining, elapsed, spent, budget, qos); !fits {
				t.Fatalf("trial %d: Select picked %d, which does not fit", trial, i)
			}
		}
		tied := false
		for k, p := range pts {
			v, fits := objective(p, remaining, elapsed, spent, budget, qos)
			switch {
			case fits && !ok:
				t.Fatalf("trial %d: point %d fits, Select found none", trial, k)
			case fits && v < best:
				t.Fatalf("trial %d: Select picked %d (%g), point %d does better (%g)", trial, i, best, k, v)
			case fits && k != i && v == best:
				tied = true
			}
		}
		if tied {
			continue
		}
		perm := make([]Point, len(pts))
		for k, j := range rng.Perm(len(pts)) {
			perm[j] = pts[k]
		}
		j, okPerm := Select(perm, remaining, elapsed, spent, budget, qos)
		if okPerm != ok || (ok && perm[j].Alloc != pts[i].Alloc) {
			t.Fatalf("trial %d (budget=%g qos=%g rem=%d elapsed=%g spent=%g): in order (%d,%v), shuffled (%d,%v)",
				trial, budget, qos, remaining, elapsed, spent, i, ok, j, okPerm)
		}
		checked++
	}
	if checked < 2000 {
		t.Errorf("only %d of 3000 trials had an untied optimum", checked)
	}
}

// TestSelectRoundingTieGoesFirst: distinct costs can collide after the
// r*Cost rounding, and the scan keeps the first index of an exact tie, in
// either order of the two points.
func TestSelectRoundingTieGoesFirst(t *testing.T) {
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
			dear := Point{Alloc: Allocation{N: 1}, Time: 1, Cost: c1}
			cheap := Point{Alloc: Allocation{N: 2}, Time: 2, Cost: c2}
			// QoS admits both; the minimum r*Cost is tied.
			for _, pts := range [][]Point{{dear, cheap}, {cheap, dear}} {
				if i, ok := Select(pts, remaining, 0, 0, 0, 1e9); !ok || i != 0 {
					t.Fatalf("r=%d c1=%v c2=%v, first %v: Select=(%d,%v), want (0,true)",
						remaining, c1, c2, pts[0].Alloc, i, ok)
				}
			}
		}
	}
	if found == 0 {
		t.Skip("no rounding collision in scan range")
	}
	t.Logf("exercised %d rounding-tie cases", found)
}
