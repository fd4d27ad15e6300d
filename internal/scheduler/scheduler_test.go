package scheduler

import (
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/predictor"
	"repro/internal/trainer"
	"repro/internal/workload"
)

func newSession(t *testing.T, w *workload.Model, budget, qos float64, delayed bool) (*Scheduler, *trainer.Runner) {
	t.Helper()
	m := cost.NewModel(w)
	pareto := m.ParetoSet(cost.DefaultGrid())
	if len(pareto) == 0 {
		t.Fatal("empty pareto set")
	}
	s := New(Config{
		Model: m, Candidates: pareto,
		Budget: budget, QoS: qos,
		TargetLoss:     w.TargetLoss,
		DelayedRestart: delayed,
		Offline:        predictor.NewOffline(w),
		OfflineSeed:    7,
	})
	return &s, trainer.NewRunner(11)
}

func runSession(t *testing.T, s *Scheduler, r *trainer.Runner, w *workload.Model) *trainer.Result {
	t.Helper()
	alloc, _ := s.Initial()
	if alloc.N == 0 {
		t.Fatal("Initial returned a zero allocation")
	}
	res := new(trainer.Result)
	if err := r.Run(trainer.Config{
		Workload:   w,
		Engine:     w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 13),
		Alloc:      alloc,
		TargetLoss: w.TargetLoss,
		MaxEpochs:  500,
		Controller: s.Controller(),
	}, res); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSchedulerConvergesUnderBudget(t *testing.T) {
	w := workload.MobileNet()
	// A generous budget: the best static plan is well inside it.
	s, r := newSession(t, w, 50, 0, true)
	res := runSession(t, s, r, w)
	if !res.Converged {
		t.Fatalf("did not converge: loss %g after %d epochs", res.FinalLoss, res.Epochs)
	}
	if res.TotalCost > 50 {
		t.Errorf("cost %g exceeded budget 50", res.TotalCost)
	}
}

func TestSchedulerMeetsQoS(t *testing.T) {
	w := workload.MobileNet()
	// First find an unconstrained-ish JCT to set a realistic deadline.
	probe, rp := newSession(t, w, 1e9, 0, true)
	base := runSession(t, probe, rp, w)
	qos := base.JCT * 2
	s, r := newSession(t, w, 0, qos, true)
	res := runSession(t, s, r, w)
	if !res.Converged {
		t.Fatalf("did not converge under QoS %g", qos)
	}
	if res.JCT > qos*1.15 {
		t.Errorf("JCT %g blew the deadline %g by more than tolerance", res.JCT, qos)
	}
}

func TestSchedulerAdjustsAtLeastOnce(t *testing.T) {
	// The offline estimate is noisy by construction, so the online
	// prediction should eventually drift past δ and trigger an adjustment
	// for at least one of several seeds.
	w := workload.ResNet50()
	// Probe an unconstrained run to find a binding budget: with slack to
	// spare the argmin allocation never changes and no restart is needed.
	probe, rp := newSession(t, w, 1e9, 0, true)
	base := runSession(t, probe, rp, w)
	budget := base.TotalCost * 1.05
	adjusted := false
	for seed := uint64(1); seed <= 5 && !adjusted; seed++ {
		m := cost.NewModel(w)
		pareto := m.ParetoSet(cost.DefaultGrid())
		s := New(Config{
			Model: m, Candidates: pareto, Budget: budget,
			TargetLoss: w.TargetLoss, DelayedRestart: true,
			Offline: predictor.NewOffline(w), OfflineSeed: seed,
		})
		r := trainer.NewRunner(seed)
		alloc, _ := s.Initial()
		if err := r.Run(trainer.Config{
			Workload:   w,
			Engine:     w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, seed),
			Alloc:      alloc,
			TargetLoss: w.TargetLoss,
			MaxEpochs:  500,
			Controller: s.Controller(),
		}, new(trainer.Result)); err != nil {
			t.Fatal(err)
		}
		if s.Restarts > 0 {
			adjusted = true
		}
	}
	if !adjusted {
		t.Error("scheduler never adjusted across 5 seeds; online prediction is inert")
	}
}

func TestDeltaControlsRestartFrequency(t *testing.T) {
	// Fig. 21(c): a lower δ must trigger at least as many restarts.
	w := workload.ResNet50()
	restarts := func(delta float64) int {
		m := cost.NewModel(w)
		pareto := m.ParetoSet(cost.DefaultGrid())
		s := New(Config{
			Model: m, Candidates: pareto, Budget: 500,
			TargetLoss: w.TargetLoss, Delta: delta, DelayedRestart: true,
			Offline: predictor.NewOffline(w), OfflineSeed: 3,
		})
		r := trainer.NewRunner(5)
		alloc, _ := s.Initial()
		res := new(trainer.Result)
		if err := r.Run(trainer.Config{
			Workload:   w,
			Engine:     w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 5),
			Alloc:      alloc,
			TargetLoss: w.TargetLoss,
			MaxEpochs:  500,
			Controller: s.Controller(),
		}, res); err != nil {
			t.Fatal(err)
		}
		return res.Restarts
	}
	low, high := restarts(0.01), restarts(0.4)
	if low < high {
		t.Errorf("δ=0.01 restarts %d < δ=0.4 restarts %d", low, high)
	}
}

// TestPlanningOverheadScalesWithCandidateSet: §IV-G WO-pa. The trainer
// bills a job exactly the planning time the scheduler charged after Initial,
// and searching the full enumeration costs more planning time than
// searching the Pareto subset.
func TestPlanningOverheadScalesWithCandidateSet(t *testing.T) {
	w := workload.MobileNet()
	m := cost.NewModel(w)
	full := m.Enumerate(cost.DefaultGrid())
	pareto := cost.Pareto(full)
	if len(pareto) >= len(full) {
		t.Skip("degenerate grid")
	}
	run := func(cands []cost.Point) float64 {
		s := New(Config{
			Model: m, Candidates: cands, Budget: 100,
			TargetLoss: w.TargetLoss, DelayedRestart: true,
			Offline: predictor.NewOffline(w), OfflineSeed: 1,
		})
		r := trainer.NewRunner(2)
		alloc, _ := s.Initial()
		initial := s.PlanningSeconds
		res := new(trainer.Result)
		if err := r.Run(trainer.Config{
			Workload:   w,
			Engine:     w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 2),
			Alloc:      alloc,
			TargetLoss: w.TargetLoss,
			MaxEpochs:  500,
			Controller: s.Controller(),
		}, res); err != nil {
			t.Fatal(err)
		}
		charged := s.PlanningSeconds - initial
		if charged <= 0 || math.Abs(res.PlanningTime-charged) > 1e-9*charged {
			t.Errorf("%d candidates: the job billed %g s of planning, the scheduler charged %g s after Initial",
				len(cands), res.PlanningTime, charged)
		}
		return s.PlanningSeconds // total planning incl. Initial
	}
	if p, f := run(pareto), run(full); f <= p {
		t.Errorf("full-set planning %g should exceed pareto planning %g", f, p)
	}
}

func TestBudgetExhaustionStops(t *testing.T) {
	w := workload.BERT()
	s, r := newSession(t, w, 0.5, 0, true) // absurdly small budget
	alloc, _ := s.Initial()
	res := new(trainer.Result)
	if err := r.Run(trainer.Config{
		Workload:   w,
		Engine:     w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 3),
		Alloc:      alloc,
		TargetLoss: w.TargetLoss,
		MaxEpochs:  500,
		Controller: s.Controller(),
	}, res); err != nil {
		t.Fatal(err)
	}
	if res.Converged && res.TotalCost > 0.5 {
		t.Error("job converged while violating an exhausted budget")
	}
	if res.Epochs >= 500 {
		t.Error("job should have stopped early on budget exhaustion")
	}
}

func TestInitialFallbackWhenConstraintImpossible(t *testing.T) {
	w := workload.MobileNet()
	s, _ := newSession(t, w, 1e-9, 0, true)
	alloc, est := s.Initial()
	if est < 1 {
		t.Errorf("offline estimate %d < 1", est)
	}
	if alloc.N == 0 {
		t.Error("Initial should fall back to the cheapest candidate")
	}
}

func TestDefaultsApplied(t *testing.T) {
	if s := New(Config{Offline: predictor.NewOffline(workload.MobileNet())}); s.delta != 0.1 {
		t.Errorf("default delta = %g, want 0.1", s.delta)
	}
	// Initial charges 0.05 s of planning per candidate it selects over; one
	// candidate more or less is 0.05 s off.
	s, _ := newSession(t, workload.MobileNet(), 100, 0, true)
	s.Initial()
	n := len(s.candidates)
	if want := 0.05 * float64(n); math.Abs(s.PlanningSeconds-want) > 1e-9 {
		t.Errorf("Initial over %d candidates charged %g s, want %g s", n, s.PlanningSeconds, want)
	}
}

// TestFixedEstimateNeverObserves: a FixedEstimate session keeps its offline
// estimate, so its online predictor never sees a loss and Siren spends no
// fit time, however many epochs it decides.
func TestFixedEstimateNeverObserves(t *testing.T) {
	w := workload.MobileNet()
	m := cost.NewModel(w)
	s := New(Config{
		Model: m, Candidates: m.Enumerate(cost.DefaultGrid()), Budget: 1e9,
		TargetLoss: w.TargetLoss, Offline: predictor.NewOffline(w), OfflineSeed: 3,
		Variant: Siren,
	})
	res := runSession(t, &s, trainer.NewRunner(4), w)
	if res.Epochs < 2 {
		t.Fatalf("run decided no epoch (%d epochs)", res.Epochs)
	}
	if n := s.online.Observations(); n != 0 {
		t.Errorf("FixedEstimate session observed %d losses over %d epochs, want 0", n, res.Epochs)
	}
}

// TestCurrentIsTheSelectedPoint: the session names its point by index, so
// after Initial and after every switch Current must be the point the
// decision names and the one the selection chose — cost.Select, its
// 1.15-relaxed retry, or else the fallback (Initial) or the escalation
// (Decide) — over one budget and one QoS session that both re-select.
func TestCurrentIsTheSelectedPoint(t *testing.T) {
	w := workload.ResNet50()
	probe, rp := newSession(t, w, 1e9, 0, true)
	base := runSession(t, probe, rp, w)
	for _, c := range []struct {
		name        string
		budget, qos float64
	}{{"budget", base.TotalCost * 1.05, 0}, {"qos", 0, base.JCT * 1.05}} {
		t.Run(c.name, func(t *testing.T) {
			s, r := newSession(t, w, c.budget, c.qos, true)
			alloc, est := s.Initial()
			want, ok := cost.Select(s.candidates, est, 0, 0, s.budget, s.qos)
			if !ok {
				want = s.fallback()
			}
			if s.cur != want || s.Current() != s.candidates[want] || alloc != s.Current().Alloc {
				t.Fatalf("Initial: on %d (%v), returned %v, want candidate %d", s.cur, s.Current().Alloc, alloc, want)
			}
			switches := 0
			check := func(epoch int, loss, elapsed, spent float64) trainer.Decision {
				prev := s.cur
				dec := s.Decide(epoch, loss, elapsed, spent)
				if !dec.Switch {
					if s.cur != prev {
						t.Errorf("epoch %d: moved from %d to %d without a switch", epoch, prev, s.cur)
					}
					return dec
				}
				switches++
				if s.Current().Alloc != dec.NewAlloc {
					t.Errorf("epoch %d: on %v, the decision names %v", epoch, s.Current().Alloc, dec.NewAlloc)
				}
				remaining := max(s.lastPrediction-epoch, 1)
				want, ok := cost.Select(s.candidates, remaining, elapsed, spent, s.budget, s.qos)
				if !ok {
					want, ok = cost.Select(s.candidates, remaining, elapsed, spent, s.budget*1.15, s.qos*1.15)
				}
				if !ok {
					now := s.cur
					s.cur = prev
					want = s.escalate()
					s.cur = now
				}
				if s.cur != want {
					t.Errorf("epoch %d: switched to candidate %d, the selection chose %d", epoch, s.cur, want)
				}
				return dec
			}
			if err := r.Run(trainer.Config{
				Workload:   w,
				Engine:     w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 13),
				Alloc:      alloc,
				TargetLoss: w.TargetLoss,
				MaxEpochs:  500,
				Controller: check,
			}, new(trainer.Result)); err != nil {
				t.Fatal(err)
			}
			if switches == 0 {
				t.Error("the session never switched, so no switch was checked")
			}
			t.Logf("%d switches", switches)
		})
	}
}
