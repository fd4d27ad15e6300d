package scheduler

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/predictor"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestSchedulerSharedFrontier: a scheduler built on Config.Frontier adopts
// the shared points without copying, and selection results match a
// scheduler built on an equivalent private candidate copy.
func TestSchedulerSharedFrontier(t *testing.T) {
	m := cost.NewModel(workload.MobileNet())
	fr := m.ParetoFrontier(cost.DefaultGrid())
	sShared := New(Config{Model: m, Frontier: fr, Budget: 500, TargetLoss: 0.42})
	sCopy := New(Config{Model: m, Candidates: m.ParetoSet(cost.DefaultGrid()), Budget: 500, TargetLoss: 0.42})
	if &sShared.candidates[0] != &fr.Points()[0] {
		t.Error("frontier-backed scheduler should share the frontier's backing array")
	}
	if &sCopy.candidates[0] == &fr.Points()[0] {
		t.Error("candidate-backed scheduler should hold a private copy")
	}
	for _, rem := range []int{1, 5, 50, 500} {
		i1, ok1 := sShared.selectBest(rem, 0, 100, 1)
		i2, ok2 := sCopy.selectBest(rem, 0, 100, 1)
		if ok1 != ok2 || sShared.candidates[i1] != sCopy.candidates[i2] {
			t.Errorf("rem=%d: shared (%v,%v) != copy (%v,%v)", rem, sShared.candidates[i1], ok1, sCopy.candidates[i2], ok2)
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
	s.cur = 0
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

// TestRestartDecisionZeroAlloc is TestDecisionZeroAlloc's restart path: every
// measured decision switches allocation, because the budget flips between
// one that affords the fast point and one that affords neither (the
// escalation steps to the cheap point), so the new allocation must travel
// in the Decision without touching the heap.
func TestRestartDecisionZeroAlloc(t *testing.T) {
	fast := cost.Point{Alloc: cost.Allocation{N: 8, MemMB: 2048}, Time: 1, Cost: 10}
	cheap := cost.Point{Alloc: cost.Allocation{N: 1, MemMB: 512}, Time: 10, Cost: 1}
	s := New(Config{
		Candidates:   []cost.Point{cheap, fast},
		Budget:       1e12,
		TargetLoss:   0.42,
		Delta:        1e-9,
		OnlineTuning: &predictor.Tuning{FixedWindow: 32, WarmStart: true, RefitBudget: 10},
	})
	// A clean descent, fitted epoch by epoch as a running job's is, so
	// every decision has a prediction.
	loss := func(epoch int) float64 { return 1/(0.01*float64(epoch)+1) + 0.40 }
	s.cur = 1 // cheap: New sorts the faster point first
	for e := 1; e <= 32; e++ {
		s.online.Observe(e, loss(e))
		s.online.PredictTotalEpochs(s.targetLoss)
	}
	ctrl := s.Controller()
	epoch := 33
	flip := func() {
		want := fast.Alloc
		s.budget = 1e12
		if s.Current().Alloc == fast.Alloc {
			want, s.budget = cheap.Alloc, 1e-9
		}
		s.lastPrediction = 0 // every prediction drifts past δ from 0
		dec := ctrl(epoch, loss(epoch), float64(epoch)*10, 0)
		if !dec.Switch || dec.NewAlloc != want || s.Current().Alloc != want {
			t.Fatalf("epoch %d: decision %+v, want a switch to %v", epoch, dec, want)
		}
		epoch++
	}
	for i := 0; i < 8; i++ {
		flip()
	}
	if avg := testing.AllocsPerRun(200, flip); avg != 0 {
		t.Errorf("a restarting decision allocates %.2f/op, want 0", avg)
	}
	t.Run("Siren", func(t *testing.T) {
		// Siren's session over its unpruned S3 grid and a fixed estimate of
		// 30 epochs: each measured run steps epochs until the exploration
		// step has switched the allocation at least once.
		var s3 []cost.Point
		for _, p := range cost.NewModel(workload.MobileNet()).Enumerate(cost.DefaultGrid()) {
			if p.Alloc.Storage == storage.S3 {
				s3 = append(s3, p)
			}
		}
		siren := New(Config{
			Candidates:  s3,
			Budget:      1e9,
			TargetLoss:  0.42,
			OfflineSeed: 3,
			Variant:     Siren,
		})
		siren.lastPrediction = 30
		siren.cur = 0
		ctrl := siren.Controller()
		epoch := 1
		restart := func() {
			for before := siren.Restarts; siren.Restarts == before; epoch++ {
				dec := ctrl(epoch%20+1, 1, 0, 0)
				if dec.Stop {
					t.Fatal("unexpected stop")
				}
				if siren.Restarts != before && (!dec.Switch || dec.NewAlloc != siren.Current().Alloc) {
					t.Fatalf("epoch %d: restart counted, decision %+v", epoch, dec)
				}
			}
		}
		if avg := testing.AllocsPerRun(200, restart); avg != 0 {
			t.Errorf("a restarting Siren decision allocates %.2f/op, want 0", avg)
		}
	})
}
