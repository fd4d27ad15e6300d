package scheduler

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/predictor"
	"repro/internal/workload"
)

// randFrontier builds a strict frontier: strictly ascending Time, strictly
// descending Cost.
func randFrontier(rng *rand.Rand, n int) []cost.Point {
	pts := make([]cost.Point, n)
	t, c := 1+rng.Float64(), 100+100*rng.Float64()
	for i := range pts {
		pts[i] = cost.Point{
			Alloc: cost.Allocation{N: i + 1, MemMB: 512},
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

// TestSelectBinaryMatchesLinear is the satellite property test: on
// randomized strict frontiers and randomized (remaining, elapsed, spent,
// relax) queries — including exact-boundary and infeasible cases — the
// binary-search selection must return exactly what the retained linear-scan
// reference returns, for both objectives.
func TestSelectBinaryMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 3000; trial++ {
		pts := randFrontier(rng, 1+rng.Intn(40))
		budget, qos := 0.0, 0.0
		if trial%2 == 0 {
			budget = rng.Float64() * 1e5
		} else {
			qos = rng.Float64() * 1e5
		}
		s := New(Config{Candidates: pts, Budget: budget, QoS: qos, TargetLoss: 0.1})
		if !s.ordered {
			t.Fatal("random frontier should be detected as strict")
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
				s.cfg.Budget = float64(remaining) * p.Cost
			} else {
				elapsed = 0
				s.cfg.QoS = float64(remaining) * p.Time
			}
			relax = 1
		case 1:
			// Infeasible: constraint below every candidate's consumption.
			if budget > 0 {
				s.cfg.Budget = 1e-12
			} else {
				s.cfg.QoS = 1e-12
			}
		case 2:
			// All feasible.
			if budget > 0 {
				s.cfg.Budget = 1e18
			} else {
				s.cfg.QoS = 1e18
			}
		}
		gotA, gotOK := s.selectBinary(remaining, elapsed, spent, relax)
		wantA, wantOK := s.selectLinear(remaining, elapsed, spent, relax)
		if gotOK != wantOK || gotA != wantA {
			t.Fatalf("trial %d (budget=%g qos=%g rem=%d elapsed=%g spent=%g relax=%g):\nbinary=(%v,%v)\nlinear=(%v,%v)\nfrontier=%v",
				trial, s.cfg.Budget, s.cfg.QoS, remaining, elapsed, spent, relax, gotA, gotOK, wantA, wantOK, pts)
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
			pts := []cost.Point{
				{Alloc: cost.Allocation{N: 1}, Time: 1, Cost: c1},
				{Alloc: cost.Allocation{N: 2}, Time: 2, Cost: c2},
			}
			// QoS admits both; the linear scan keeps N=1 (first of the tied
			// run under strict <), so binary must too.
			s := New(Config{Candidates: pts, QoS: 1e9, TargetLoss: 0.1})
			gotA, gotOK := s.selectBinary(remaining, 0, 0, 1)
			wantA, wantOK := s.selectLinear(remaining, 0, 0, 1)
			if gotOK != wantOK || gotA != wantA {
				t.Fatalf("r=%d c1=%v c2=%v: binary=(%v,%v) linear=(%v,%v)",
					remaining, c1, c2, gotA, gotOK, wantA, wantOK)
			}
		}
	}
	if found == 0 {
		t.Skip("no rounding collision in scan range (walk-back path untested here)")
	}
	t.Logf("exercised %d rounding-tie cases", found)
}

// TestNonFrontierFallsBackToLinear: candidate sets that are not strict
// frontiers (duplicate times, non-descending costs — e.g. the WO-pa full
// enumeration) must disable the binary path.
func TestNonFrontierFallsBackToLinear(t *testing.T) {
	dup := []cost.Point{
		{Alloc: cost.Allocation{N: 1}, Time: 1, Cost: 5},
		{Alloc: cost.Allocation{N: 2}, Time: 1, Cost: 4},
		{Alloc: cost.Allocation{N: 3}, Time: 2, Cost: 3},
	}
	if s := New(Config{Candidates: dup, Budget: 10, TargetLoss: 0.1}); s.ordered {
		t.Error("duplicate times should not be treated as a strict frontier")
	}
	rising := []cost.Point{
		{Alloc: cost.Allocation{N: 1}, Time: 1, Cost: 3},
		{Alloc: cost.Allocation{N: 2}, Time: 2, Cost: 4},
	}
	if s := New(Config{Candidates: rising, Budget: 10, TargetLoss: 0.1}); s.ordered {
		t.Error("non-descending costs should not be treated as a strict frontier")
	}
	if s := New(Config{Budget: 10, TargetLoss: 0.1}); s.ordered {
		t.Error("empty candidates should not be ordered")
	}
	m := cost.NewModel(workload.MobileNet())
	full := m.Enumerate(cost.DefaultGrid())
	sFull := New(Config{Model: m, Candidates: full, Budget: 1e12, TargetLoss: 0.42})
	if sFull.ordered {
		t.Error("full enumeration should fall back to the linear reference")
	}
	sPareto := New(Config{Model: m, Frontier: m.ParetoFrontier(cost.DefaultGrid()), Budget: 1e12, TargetLoss: 0.42})
	if !sPareto.ordered {
		t.Error("shared Pareto frontier should enable the binary path")
	}
}

// TestSchedulerSharedFrontier: a scheduler built on Config.Frontier adopts
// the shared points without copying, and selection results match a
// scheduler built on an equivalent private candidate copy.
func TestSchedulerSharedFrontier(t *testing.T) {
	m := cost.NewModel(workload.MobileNet())
	fr := m.ParetoFrontier(cost.DefaultGrid())
	sShared := New(Config{Model: m, Frontier: fr, Budget: 500, TargetLoss: 0.42})
	sCopy := New(Config{Model: m, Candidates: m.ParetoSet(cost.DefaultGrid()), Budget: 500, TargetLoss: 0.42})
	if &sShared.cfg.Candidates[0] != &fr.Points()[0] {
		t.Error("frontier-backed scheduler should share the frontier's backing array")
	}
	if &sCopy.cfg.Candidates[0] == &fr.Points()[0] {
		t.Error("candidate-backed scheduler should hold a private copy")
	}
	for _, rem := range []int{1, 5, 50, 500} {
		a1, ok1 := sShared.selectBest(rem, 0, 100)
		a2, ok2 := sCopy.selectBest(rem, 0, 100)
		if ok1 != ok2 || a1 != a2 {
			t.Errorf("rem=%d: shared (%v,%v) != copy (%v,%v)", rem, a1, ok1, a2, ok2)
		}
	}
}

// TestDecisionZeroAlloc is the PR7 steady-state gate (the Alg. 2 analogue
// of PR5's RunEpoch gate): one full per-epoch decision — observe, fit,
// predict, select, log — must not touch the heap under the fleet tuning
// with tracing disabled.
func TestDecisionZeroAlloc(t *testing.T) {
	m := cost.NewModel(workload.MobileNet())
	s := New(Config{
		Model:        m,
		Frontier:     m.ParetoFrontier(cost.DefaultGrid()),
		Budget:       1e12,
		TargetLoss:   0.42,
		Delta:        1e-9, // force the full select path every epoch
		OnlineTuning: &predictor.Tuning{FixedWindow: 32, WarmStart: true, RefitBudget: 10},
	})
	s.alloc = s.cfg.Candidates[0].Alloc
	s.lastPrediction = 1
	for e := 1; e <= 32; e++ {
		s.online.Observe(e, benchCurve(e))
	}
	ctrl := s.Controller()
	epoch := 33
	warm := func() {
		dec := ctrl(epoch, benchCurve(epoch), float64(epoch)*10, float64(epoch)*1e-6)
		if dec.Stop {
			t.Fatal("unexpected stop")
		}
		epoch++
	}
	for i := 0; i < 64; i++ {
		warm() // settle the allocation choice so no restarts remain
	}
	if avg := testing.AllocsPerRun(200, warm); avg != 0 {
		t.Errorf("steady-state decision allocates %.2f/op, want 0", avg)
	}
}
