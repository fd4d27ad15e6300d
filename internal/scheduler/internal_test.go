package scheduler

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/predictor"
	"repro/internal/storage"
	"repro/internal/workload"
)

// syntheticCandidates builds a tiny, fully controlled frontier.
func syntheticCandidates() []cost.Point {
	return []cost.Point{
		{Alloc: cost.Allocation{N: 50, MemMB: 4096, Storage: storage.ElastiCache}, Time: 10, Cost: 1.0},
		{Alloc: cost.Allocation{N: 20, MemMB: 2048, Storage: storage.VMPS}, Time: 20, Cost: 0.5},
		{Alloc: cost.Allocation{N: 10, MemMB: 1769, Storage: storage.VMPS}, Time: 40, Cost: 0.25},
		{Alloc: cost.Allocation{N: 5, MemMB: 1024, Storage: storage.S3}, Time: 80, Cost: 0.1},
	}
}

func newSynthetic(budget, qos float64) *Scheduler {
	s := New(Config{
		Candidates: syntheticCandidates(),
		Budget:     budget,
		QoS:        qos,
		TargetLoss: 0.1,
		Offline:    predictor.NewOffline(workload.MobileNet()),
	})
	return &s
}

func TestCandidatesSortedByTime(t *testing.T) {
	// Feed them reversed; New must sort.
	cands := syntheticCandidates()
	for i, j := 0, len(cands)-1; i < j; i, j = i+1, j-1 {
		cands[i], cands[j] = cands[j], cands[i]
	}
	s := New(Config{Candidates: cands, Budget: 1, TargetLoss: 0.1,
		Offline: predictor.NewOffline(workload.MobileNet())})
	for i := 1; i < len(s.candidates); i++ {
		if s.candidates[i].Time < s.candidates[i-1].Time {
			t.Fatal("candidates not sorted by time")
		}
	}
	if fastest := s.candidates[0].Alloc; fastest.N != 50 {
		t.Errorf("fastest = %+v", fastest)
	}
	if cheapest := s.candidates[s.cheapest()].Alloc; cheapest.N != 5 {
		t.Errorf("cheapest = %+v", cheapest)
	}
}

func TestSelectBestBudgetCase(t *testing.T) {
	s := newSynthetic(10, 0)
	// 10 epochs at cost<=1.0 total budget: only the 0.1-cost point fits
	// (10 x 0.1 = 1 <= 10? all fit: 10x1.0=10 <= 10). Fastest affordable wins.
	i, ok := s.selectBest(10, 0, 0, 1)
	if !ok || s.candidates[i].Alloc.N != 50 {
		t.Errorf("selectBest = %+v ok=%v, want the fastest (all affordable)", s.candidates[i].Alloc, ok)
	}
	// With 9 already spent, only cheap points remain affordable.
	i, ok = s.selectBest(10, 0, 9, 1)
	if !ok || s.candidates[i].Alloc.N != 5 {
		t.Errorf("selectBest with spent=9 = %+v ok=%v, want the cheapest", s.candidates[i].Alloc, ok)
	}
	// Nothing fits.
	if _, ok := s.selectBest(10, 0, 9.99, 1); ok {
		t.Error("infeasible projection should fail")
	}
}

func TestSelectBestQoSCase(t *testing.T) {
	s := newSynthetic(0, 500)
	// 10 epochs, deadline 500: all fit except the 80s point at elapsed 0?
	// 10x80 = 800 > 500: excluded. Cheapest fitting = the 40s point.
	i, ok := s.selectBest(10, 0, 0, 1)
	if !ok || s.candidates[i].Alloc.N != 10 {
		t.Errorf("selectBest = %+v ok=%v, want the 40s/0.25 point", s.candidates[i].Alloc, ok)
	}
	// With elapsed 350, only the 10s point projects under the deadline.
	i, ok = s.selectBest(10, 350, 0, 1)
	if !ok || s.candidates[i].Alloc.N != 50 {
		t.Errorf("selectBest elapsed=350 = %+v ok=%v, want the fastest", s.candidates[i].Alloc, ok)
	}
}

func TestSelectBestRelaxed(t *testing.T) {
	s := newSynthetic(0, 500)
	// Strictly nothing at elapsed=420 (10x10=100 > 80 headroom), but a 15%
	// stretch admits the fastest (elapsed+100 = 520 <= 575).
	if _, ok := s.selectBest(10, 420, 0, 1); ok {
		t.Fatal("strict selection should fail")
	}
	i, ok := s.selectBest(10, 420, 0, 1.15)
	if !ok || s.candidates[i].Alloc.N != 50 {
		t.Errorf("relaxed = %+v ok=%v", s.candidates[i].Alloc, ok)
	}
}

func TestEscalateQoSMovesOneStepFaster(t *testing.T) {
	s := newSynthetic(0, 1000)
	s.cur = 2 // the 40s point
	if got := s.escalate(); got != 1 {
		t.Errorf("escalate = %d, want 1, one step faster", got)
	}
	s.cur = 0 // already fastest
	if got := s.escalate(); got != 0 {
		t.Errorf("escalate at the top should stay, got %d", got)
	}
	s.cur = -1 // no current point
	if got := s.escalate(); got != 0 {
		t.Errorf("escalate with no current point should jump to the fastest, got %d", got)
	}
}

func TestEscalateBudgetMovesOneStepCheaper(t *testing.T) {
	s := newSynthetic(10, 0)
	s.cur = 1                          // cost 0.5
	if got := s.escalate(); got != 2 { // cost 0.25 is the next cheaper
		t.Errorf("escalate = %d, want 2, the next-cheaper point", got)
	}
	s.cur = 3 // already cheapest
	if got := s.escalate(); got != 3 {
		t.Errorf("escalate at the bottom should stay, got %d", got)
	}
	s.cur = -1 // no current point
	if got := s.escalate(); got != 3 {
		t.Errorf("escalate with no current point should jump to the cheapest, got %d", got)
	}
}

func TestWorthSwitchingHysteresis(t *testing.T) {
	s := newSynthetic(1000, 0)
	s.cur = 1 // 20s/0.5
	// Switching to the 10s point halves the time: worth it.
	if !s.worthSwitching(0, 10, 0, 0) {
		t.Error("2x speedup should be worth a restart")
	}
	// A hypothetical marginal candidate: inject a nearly identical point.
	s.candidates = append(s.candidates, cost.Point{
		Alloc: cost.Allocation{N: 21, MemMB: 2048, Storage: storage.VMPS}, Time: 19.5, Cost: 0.49,
	})
	marginal := len(s.candidates) - 1
	if s.worthSwitching(marginal, 10, 0, 0) {
		t.Error("a 2.5% gain should not justify a restart")
	}
	// But staying put while the budget projection fails forces the switch.
	if !s.worthSwitching(marginal, 10, 0, 999) {
		t.Error("budget violation must force the switch")
	}
	// With no current point there is nothing to stay on.
	s.cur = -1
	if !s.worthSwitching(marginal, 10, 0, 0) {
		t.Error("no current point must take the re-selection")
	}
}
