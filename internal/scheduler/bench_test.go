package scheduler

// Benchmarks for the per-epoch Algorithm-2 decision path (fit -> predict ->
// select -> decision-log). These are the fleet-cost numbers: a macro-fleet
// run multiplies ns/decision by (tenants x epochs), so the steady-state
// decision must be allocation-free and cheap. `go run ./cmd/bench -layers`
// reports it as scheduler.probe.decide_ns.

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/predictor"
	"repro/internal/workload"
)

// benchCurve is the loss feed: a clean inverse-linear descent toward a 0.40
// floor with a deterministic +-2% alternation so the online prediction
// wobbles by a few epochs every observation — enough drift to trigger the
// full select path when delta is tiny, while the huge budget keeps the
// chosen allocation stable (steady state: no restarts, no allocations).
func benchCurve(epoch int) float64 {
	l := 1/(0.01*float64(epoch)+1) + 0.40
	if epoch%2 == 0 {
		return l * 1.02
	}
	return l * 0.98
}

// newBenchScheduler builds a session over the real MobileNet Pareto
// frontier with a pre-warmed online fitter, bypassing Initial (the offline
// sampling predictor is setup cost, not per-decision cost).
func newBenchScheduler(b *testing.B, delta float64) *Scheduler {
	b.Helper()
	m := cost.NewModel(workload.MobileNet())
	pareto := m.ParetoSet(cost.DefaultGrid())
	if len(pareto) == 0 {
		b.Fatal("empty pareto set")
	}
	s := New(Config{
		Model:      m,
		Candidates: pareto,
		Budget:     1e12,
		TargetLoss: 0.42,
		Delta:      delta,
	})
	s.cur = 0
	s.lastPrediction = 1
	s.online.ApplyTuning(predictor.Tuning{FixedWindow: 32})
	for e := 1; e <= 32; e++ {
		s.online.Observe(e, benchCurve(e))
	}
	return &s
}

// runDecisions drives n steady-state controller decisions.
func runDecisions(s *Scheduler, start, n int) {
	ctrl := s.Controller()
	for i := 0; i < n; i++ {
		epoch := start + i%4096
		dec := ctrl(epoch, benchCurve(epoch), float64(i)*10, float64(i)*1e-6)
		if dec.Stop {
			panic("bench decision stopped")
		}
	}
}

// BenchmarkDecisionSteadyState measures the full per-epoch decision with a
// tiny delta, so nearly every epoch runs fit -> predict -> select -> log.
func BenchmarkDecisionSteadyState(b *testing.B) {
	s := newBenchScheduler(b, 1e-9)
	runDecisions(s, 33, 64) // settle the fitter and the allocation choice
	b.ReportAllocs()
	b.ResetTimer()
	runDecisions(s, 97, b.N)
}

// BenchmarkDecisionWithinDelta measures the fit+predict-only epochs (the
// delta gate holds, no reselection) — the cheapest steady-state decision.
func BenchmarkDecisionWithinDelta(b *testing.B) {
	s := newBenchScheduler(b, 1e9)
	runDecisions(s, 33, 64)
	b.ReportAllocs()
	b.ResetTimer()
	runDecisions(s, 97, b.N)
}

// BenchmarkDecisionFleet measures the per-epoch decision under the fleet
// tuning (bounded window, warm-started refits with a small LM budget) —
// the configuration macro-fleet multiplies by the tenant count.
func BenchmarkDecisionFleet(b *testing.B) {
	s := newBenchScheduler(b, 1e-9)
	s.online.ApplyTuning(predictor.Tuning{FixedWindow: 32, WarmStart: true, RefitBudget: 10})
	runDecisions(s, 33, 64)
	b.ReportAllocs()
	b.ResetTimer()
	runDecisions(s, 97, b.N)
}

// BenchmarkSelectBest measures one constrained selection over the real
// Pareto frontier (the candidate-scan component of a decision).
func BenchmarkSelectBest(b *testing.B) {
	s := newBenchScheduler(b, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.selectBest(100+i%7, 0, 0, 1); !ok {
			b.Fatal("selection failed")
		}
	}
}

// BenchmarkSelectBestFullEnum measures the same selection over the full
// feasible enumeration (the WO-pa ablation's candidate set).
func BenchmarkSelectBestFullEnum(b *testing.B) {
	m := cost.NewModel(workload.MobileNet())
	full := m.Enumerate(cost.DefaultGrid())
	s := New(Config{Model: m, Candidates: full, Budget: 1e12, TargetLoss: 0.42})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.selectBest(100+i%7, 0, 0, 1); !ok {
			b.Fatal("selection failed")
		}
	}
}
