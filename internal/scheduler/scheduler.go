// Package scheduler implements the paper's adaptive resource scheduler for
// model training (§III-D, Algorithm 2): start from an offline-predicted
// allocation, fit the convergence curve online after every epoch, and when
// the predicted total number of epochs drifts by more than δ re-select the
// best allocation from the Pareto set — under either a budget (minimize
// JCT) or a QoS deadline (minimize cost). Switches use the trainer's
// delayed restart to hide adjustment overhead unless disabled (the
// WO-pa / WO-pa-dr ablations of §IV-G).
package scheduler

import (
	"math"
	"sort"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/predictor"
	"repro/internal/trainer"
)

// Config parameterizes one adaptive scheduling session.
type Config struct {
	Model *cost.Model
	// Candidates is the allocation set searched at every adjustment —
	// normally the Pareto set; the WO-pa ablation passes the full
	// enumeration instead.
	Candidates []cost.Point
	// Frontier, when set and Candidates is empty, supplies the candidate
	// set as an immutable shared Pareto boundary (cost.ParetoFrontier).
	// The scheduler searches the shared points directly — no per-session
	// copy, no re-sort — which is what lets thousands of fleet tenants
	// share one frontier instance.
	Frontier *cost.Frontier

	// Exactly one of Budget (minimize JCT, Eq. 13-14) or QoS (minimize
	// cost, Eq. 15-16) must be positive.
	Budget float64
	QoS    float64

	TargetLoss float64
	// Delta is the prediction-drift threshold δ that triggers adjustment
	// (default 0.1, §IV-G).
	Delta float64
	// DelayedRestart enables the Fig. 8 overlap optimization.
	DelayedRestart bool
	// OnlineTuning, when non-nil, switches the online curve fitter to the
	// fleet configuration (bounded history, warm-started budget-limited
	// refits; see predictor.Tuning). Nil keeps the historical exact
	// configuration and its bit-identical outputs.
	OnlineTuning *predictor.Tuning
	// Shared, when set and OnlineTuning is nil, keeps the online history in
	// a tree the sessions of one framework share, so a loss history they
	// all observe is fitted once (predictor.Shared). Predictions keep their
	// bits; nil gives the session a private predictor.
	Shared *predictor.Shared
	// Offline supplies the warm-start epoch estimate; required.
	Offline *predictor.Offline
	// OfflineSeed seeds the offline sampling run.
	OfflineSeed uint64
	// Obs, when set, records the per-epoch decision log (observed loss,
	// fitted prediction, drift vs δ, path taken, allocation chosen) as
	// trace instants on the job's timeline. Nil disables recording.
	Obs *obs.Observer
}

// planningSecondsPerCandidate models the decision latency per candidate
// allocation evaluated (the §IV-G scheduling-overhead metric).
const planningSecondsPerCandidate = 0.05

// Scheduler drives one training job. Create with New, obtain the initial
// allocation from Initial, and wire Controller into the trainer.
type Scheduler struct {
	cfg    Config
	online predictor.Online

	alloc          cost.Allocation
	lastPrediction int // latest predicted total epochs (the e of Alg. 2)
	// panicked marks that the last adjustment was a constraint-pressure
	// fallback; while set, the scheduler re-evaluates every epoch instead
	// of waiting for δ drift, so an over-pessimistic early prediction does
	// not pin the job to an extreme allocation.
	panicked bool
	// ordered is cost.Strict of the candidates, computed once at New, so
	// cost.Select binary-searches a frontier and scans any other set (the
	// WO-pa full enumeration).
	ordered bool

	// Metrics.
	Restarts        int
	Adjustments     int
	CandidatesSeen  int
	PlanningSeconds float64
}

// New returns a scheduler for cfg with defaults applied. The candidate set
// is sorted by ascending epoch time, so index 0 is always the fastest
// allocation (the panic fallback under deadline pressure). A shared
// cost.Frontier is adopted as-is — it is already time-sorted and immutable,
// so no per-session copy is made.
func New(cfg Config) *Scheduler {
	if cfg.Delta <= 0 {
		cfg.Delta = 0.1
	}
	if cfg.Frontier != nil && len(cfg.Candidates) == 0 {
		cfg.Candidates = cfg.Frontier.Points()
	} else {
		cands := make([]cost.Point, len(cfg.Candidates))
		copy(cands, cfg.Candidates)
		sort.Slice(cands, func(i, j int) bool { return cands[i].Time < cands[j].Time })
		cfg.Candidates = cands
	}
	s := &Scheduler{cfg: cfg, ordered: cost.Strict(cfg.Candidates)}
	if cfg.OnlineTuning != nil {
		s.online.ApplyTuning(*cfg.OnlineTuning)
	} else {
		s.online = *cfg.Shared.NewOnline()
	}
	return s
}

// fastest returns the lowest-epoch-time candidate.
func (s *Scheduler) fastest() cost.Allocation { return s.cfg.Candidates[0].Alloc }

// cheapest returns the lowest-epoch-cost candidate.
func (s *Scheduler) cheapest() cost.Allocation {
	best := s.cfg.Candidates[0]
	for _, p := range s.cfg.Candidates[1:] {
		if p.Cost < best.Cost {
			best = p
		}
	}
	return best.Alloc
}

// escalate moves the current allocation one step along the time-sorted
// candidate list: toward faster under a QoS deadline, toward cheaper (in
// epoch cost) under a budget.
func (s *Scheduler) escalate() cost.Allocation {
	idx := -1
	for i, p := range s.cfg.Candidates {
		if p.Alloc == s.alloc {
			idx = i
			break
		}
	}
	if s.cfg.QoS > 0 {
		switch {
		case idx < 0:
			return s.fastest()
		case idx > 0:
			return s.cfg.Candidates[idx-1].Alloc
		default:
			return s.alloc
		}
	}
	// Budget case: find a cheaper-per-epoch candidate than the current one.
	if idx < 0 {
		return s.cheapest()
	}
	cur := s.cfg.Candidates[idx]
	best := cur
	for _, p := range s.cfg.Candidates {
		if p.Cost < cur.Cost && (best == cur || p.Cost > best.Cost) {
			best = p
		}
	}
	return best.Alloc
}

// Initial computes the starting allocation (Algorithm 2 lines 2-7): an
// offline epoch estimate followed by a constrained selection over the
// candidate set.
func (s *Scheduler) Initial() (cost.Allocation, int) {
	est := s.cfg.Offline.PredictEpochs(s.cfg.TargetLoss, s.cfg.OfflineSeed)
	s.lastPrediction = est
	if a, ok := s.selectBest(est, 0, 0); ok {
		s.alloc = a
	} else if len(s.cfg.Candidates) > 0 {
		// Nothing satisfies the constraint under the estimate: fall back to
		// the cheapest candidate (budget case) or fastest (QoS case).
		if s.cfg.Budget > 0 {
			s.alloc = s.cheapest()
		} else {
			s.alloc = s.fastest()
		}
	}
	return s.alloc, est
}

// selectBest is select_best_allocation(b, P, e) (cost.Select) over the
// candidates.
func (s *Scheduler) selectBest(remaining int, elapsed, spent float64) (cost.Allocation, bool) {
	return s.selectBestRelaxed(remaining, elapsed, spent, 1)
}

// selectBestRelaxed is selectBest with the constraint scaled by relax >= 1;
// the scheduler prefers a mildly stretched constraint over flapping to an
// extreme allocation when online predictions are noisy.
//
// The modeled planning overhead (§IV-G) charges every candidate regardless
// of how the optimum is located: Algorithm 2's select_best_allocation is
// defined over the whole set, and the accounting must not change because
// the implementation got smarter. The repeated addition (rather than one
// multiply) keeps the accumulated float bit-identical to the historical
// per-candidate loop.
func (s *Scheduler) selectBestRelaxed(remaining int, elapsed, spent float64, relax float64) (cost.Allocation, bool) {
	for range s.cfg.Candidates {
		s.CandidatesSeen++
		s.PlanningSeconds += planningSecondsPerCandidate
	}
	i, ok := cost.Select(s.cfg.Candidates, s.ordered, remaining, elapsed, spent, s.cfg.Budget*relax, s.cfg.QoS*relax)
	if !ok {
		return cost.Allocation{}, false
	}
	return s.cfg.Candidates[i].Alloc, true
}

// worthSwitching reports whether moving to next is predicted to improve the
// objective by at least 10% over staying put for the remaining epochs, or
// whether staying would violate the constraint. Restarts are not free, so
// marginal predicted gains do not justify one.
func (s *Scheduler) worthSwitching(next cost.Allocation, remaining int, elapsed, spent float64) bool {
	var cur, nxt *cost.Point
	for i := range s.cfg.Candidates {
		switch s.cfg.Candidates[i].Alloc {
		case s.alloc:
			cur = &s.cfg.Candidates[i]
		case next:
			nxt = &s.cfg.Candidates[i]
		}
	}
	if cur == nil || nxt == nil {
		return true // unknown current point: trust the re-selection
	}
	r := float64(remaining)
	if s.cfg.Budget > 0 {
		if spent+r*cur.Cost > s.cfg.Budget {
			return true // staying blows the budget
		}
		return r*nxt.Time < 0.9*r*cur.Time
	}
	if elapsed+r*cur.Time > s.cfg.QoS {
		return true // staying blows the deadline
	}
	return r*nxt.Cost < 0.9*r*cur.Cost
}

// Controller returns the trainer hook implementing Algorithm 2 lines 8-15:
// the decide method as a bound value. The binding allocates once per job at
// wiring time; the per-epoch decide calls it funnels are allocation-free in
// steady state (gated by TestDecisionZeroAlloc).
func (s *Scheduler) Controller() trainer.Controller {
	return s.decide
}

// decide is the per-epoch Algorithm 2 body (lines 8-15): observe the loss,
// refit, and re-select the allocation when the prediction drifts past δ.
func (s *Scheduler) decide(epoch int, loss float64, elapsed, spent float64) trainer.Decision {
	s.online.Observe(epoch, loss)

	planningBefore := s.PlanningSeconds
	dec := trainer.Decision{}

	if s.cfg.Budget > 0 && spent >= s.cfg.Budget {
		dec.Stop = true
		s.logDecision(elapsed, epoch, loss, 0, 0, "stop-budget", dec)
		return dec
	}

	// path names the Alg. 2 branch this epoch took, for the decision log:
	// no-prediction (line 8's fit not ready), within-delta (line 9 false),
	// then for adjustments which selector produced the candidate —
	// select (line 10), relax (the 1.15-stretched retry), or
	// escalate-panic (constraint unmeetable under every candidate).
	path := "no-prediction"
	var drift float64
	predicted, ok := s.online.PredictTotalEpochs(s.cfg.TargetLoss)
	if ok {
		path = "within-delta"
		drift = math.Abs(float64(predicted-s.lastPrediction)) / math.Max(float64(s.lastPrediction), 1)
		if drift > s.cfg.Delta || s.panicked {
			s.lastPrediction = predicted
			remaining := predicted - epoch
			if remaining < 1 {
				remaining = 1
			}
			path = "select"
			next, found := s.selectBest(remaining, elapsed, spent)
			if !found {
				// Mild stretch before panicking: a noisy prediction
				// that barely misses the constraint should not flap
				// the job to an extreme allocation.
				path = "relax"
				next, found = s.selectBestRelaxed(remaining, elapsed, spent, 1.15)
			}
			if found {
				s.panicked = false
			} else if len(s.cfg.Candidates) > 0 {
				// The constraint can no longer be met under any
				// allocation. Escalate one step along the frontier —
				// faster under a deadline, cheaper under a budget —
				// rather than flapping straight to the extreme: the
				// panicked flag re-evaluates every epoch, so genuine
				// pressure keeps escalating while a one-epoch fit
				// wobble costs only one step.
				path = "escalate-panic"
				next = s.escalate()
				found = true
				s.panicked = true
			}
			if found && next != s.alloc && s.worthSwitching(next, remaining, elapsed, spent) {
				s.alloc = next
				s.Restarts++
				s.Adjustments++
				dec.Switch, dec.NewAlloc = true, next
				dec.Delayed = s.cfg.DelayedRestart
			}
		}
	}
	dec.PlanningSeconds = s.PlanningSeconds - planningBefore
	s.logDecision(elapsed, epoch, loss, predicted, drift, path, dec)
	return dec
}

// logDecision records one per-epoch decision-log instant: the Alg. 2 inputs
// (observed loss, fitted total-epoch prediction, drift vs δ), the branch
// taken, and the outcome (restart issued, allocation chosen). Timestamps
// are on the job's own timeline (elapsed seconds), matching the trainer's
// spans.
func (s *Scheduler) logDecision(elapsed float64, epoch int, loss float64, predicted int, drift float64, path string, dec trainer.Decision) {
	if !s.cfg.Obs.Enabled() {
		return
	}
	restart := dec.Switch
	args := []obs.Arg{
		obs.I("epoch", epoch),
		obs.F("loss", loss),
		obs.I("predicted_total", predicted),
		obs.F("drift", drift),
		obs.F("delta", s.cfg.Delta),
		obs.S("path", path),
		obs.B("restart", restart),
		obs.B("stop", dec.Stop),
		obs.I("alloc_n", s.alloc.N),
		obs.I("alloc_mem_mb", s.alloc.MemMB),
		obs.S("alloc_storage", s.alloc.Storage.String()),
	}
	if restart {
		args = append(args, obs.B("delayed", dec.Delayed))
	}
	s.cfg.Obs.Trace().InstantAt(elapsed, "scheduler", "scheduler", "decision", args...)
	s.cfg.Obs.Stats().Inc("scheduler.decisions")
	s.cfg.Obs.Stats().Inc("scheduler.path." + path)
	if restart {
		s.cfg.Obs.Stats().Inc("scheduler.restarts")
	}
}
