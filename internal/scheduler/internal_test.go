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
	return New(Config{
		Candidates: syntheticCandidates(),
		Budget:     budget,
		QoS:        qos,
		TargetLoss: 0.1,
		Offline:    predictor.NewOffline(workload.MobileNet()),
	})
}

func TestCandidatesSortedByTime(t *testing.T) {
	// Feed them reversed; New must sort.
	cands := syntheticCandidates()
	for i, j := 0, len(cands)-1; i < j; i, j = i+1, j-1 {
		cands[i], cands[j] = cands[j], cands[i]
	}
	s := New(Config{Candidates: cands, Budget: 1, TargetLoss: 0.1,
		Offline: predictor.NewOffline(workload.MobileNet())})
	for i := 1; i < len(s.cfg.Candidates); i++ {
		if s.cfg.Candidates[i].Time < s.cfg.Candidates[i-1].Time {
			t.Fatal("candidates not sorted by time")
		}
	}
	if s.fastest().N != 50 {
		t.Errorf("fastest = %+v", s.fastest())
	}
	if s.cheapest().N != 5 {
		t.Errorf("cheapest = %+v", s.cheapest())
	}
}

func TestSelectBestBudgetCase(t *testing.T) {
	s := newSynthetic(10, 0)
	// 10 epochs at cost<=1.0 total budget: only the 0.1-cost point fits
	// (10 x 0.1 = 1 <= 10? all fit: 10x1.0=10 <= 10). Fastest affordable wins.
	a, ok := s.selectBest(10, 0, 0)
	if !ok || a.N != 50 {
		t.Errorf("selectBest = %+v ok=%v, want the fastest (all affordable)", a, ok)
	}
	// With 9 already spent, only cheap points remain affordable.
	a, ok = s.selectBest(10, 0, 9)
	if !ok || a.N != 5 {
		t.Errorf("selectBest with spent=9 = %+v ok=%v, want the cheapest", a, ok)
	}
	// Nothing fits.
	if _, ok := s.selectBest(10, 0, 9.99); ok {
		t.Error("infeasible projection should fail")
	}
}

func TestSelectBestQoSCase(t *testing.T) {
	s := newSynthetic(0, 500)
	// 10 epochs, deadline 500: all fit except the 80s point at elapsed 0?
	// 10x80 = 800 > 500: excluded. Cheapest fitting = the 40s point.
	a, ok := s.selectBest(10, 0, 0)
	if !ok || a.N != 10 {
		t.Errorf("selectBest = %+v ok=%v, want the 40s/0.25 point", a, ok)
	}
	// With elapsed 350, only the 10s point projects under the deadline.
	a, ok = s.selectBest(10, 350, 0)
	if !ok || a.N != 50 {
		t.Errorf("selectBest elapsed=350 = %+v ok=%v, want the fastest", a, ok)
	}
}

func TestSelectBestRelaxed(t *testing.T) {
	s := newSynthetic(0, 500)
	// Strictly nothing at elapsed=420 (10x10=100 > 80 headroom), but a 15%
	// stretch admits the fastest (elapsed+100 = 520 <= 575).
	if _, ok := s.selectBest(10, 420, 0); ok {
		t.Fatal("strict selection should fail")
	}
	a, ok := s.selectBestRelaxed(10, 420, 0, 1.15)
	if !ok || a.N != 50 {
		t.Errorf("relaxed = %+v ok=%v", a, ok)
	}
}

func TestEscalateQoSMovesOneStepFaster(t *testing.T) {
	s := newSynthetic(0, 1000)
	s.alloc = s.cfg.Candidates[2].Alloc // the 40s point
	next := s.escalate()
	if next != s.cfg.Candidates[1].Alloc {
		t.Errorf("escalate = %+v, want one step faster", next)
	}
	s.alloc = s.cfg.Candidates[0].Alloc // already fastest
	if got := s.escalate(); got != s.alloc {
		t.Errorf("escalate at the top should stay, got %+v", got)
	}
	s.alloc = cost.Allocation{N: 999} // unknown
	if got := s.escalate(); got != s.fastest() {
		t.Errorf("escalate from unknown should jump to fastest, got %+v", got)
	}
}

func TestEscalateBudgetMovesOneStepCheaper(t *testing.T) {
	s := newSynthetic(10, 0)
	s.alloc = s.cfg.Candidates[1].Alloc // cost 0.5
	next := s.escalate()
	if next != s.cfg.Candidates[2].Alloc { // cost 0.25 is the next cheaper
		t.Errorf("escalate = %+v, want the next-cheaper point", next)
	}
	s.alloc = s.cfg.Candidates[3].Alloc // already cheapest
	if got := s.escalate(); got != s.alloc {
		t.Errorf("escalate at the bottom should stay, got %+v", got)
	}
}

func TestWorthSwitchingHysteresis(t *testing.T) {
	s := newSynthetic(1000, 0)
	s.alloc = s.cfg.Candidates[1].Alloc // 20s/0.5
	// Switching to the 10s point halves the time: worth it.
	if !s.worthSwitching(s.cfg.Candidates[0].Alloc, 10, 0, 0) {
		t.Error("2x speedup should be worth a restart")
	}
	// A hypothetical marginal candidate: inject a nearly identical point.
	s.cfg.Candidates = append(s.cfg.Candidates, cost.Point{
		Alloc: cost.Allocation{N: 21, MemMB: 2048, Storage: storage.VMPS}, Time: 19.5, Cost: 0.49,
	})
	if s.worthSwitching(s.cfg.Candidates[len(s.cfg.Candidates)-1].Alloc, 10, 0, 0) {
		t.Error("a 2.5% gain should not justify a restart")
	}
	// But staying put while the budget projection fails forces the switch.
	if !s.worthSwitching(s.cfg.Candidates[len(s.cfg.Candidates)-1].Alloc, 10, 0, 999) {
		t.Error("budget violation must force the switch")
	}
}
