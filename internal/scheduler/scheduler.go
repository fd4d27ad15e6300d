// Package scheduler implements the paper's adaptive resource scheduler for
// model training (§III-D, Algorithm 2): start from an offline-predicted
// allocation, fit the convergence curve online after every epoch, and when
// the predicted total number of epochs drifts by more than δ re-select the
// best allocation from the Pareto set — under either a budget (minimize
// JCT) or a QoS deadline (minimize cost). Switches use the trainer's
// delayed restart to hide adjustment overhead unless disabled (the
// WO-pa / WO-pa-dr ablations of §IV-G). The same body, with a Variant's
// traits switched on, is the Siren baseline's training controller.
package scheduler

import (
	"math"
	"sort"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/trainer"
)

// DefaultDelta is the prediction-drift threshold δ of §IV-G, the Delta a
// zero Config takes.
const DefaultDelta = 0.1

// Config parameterizes one adaptive scheduling session.
type Config struct {
	// Model is the session's analytic model. The scheduler does not read
	// it: the candidates carry its estimates. cmd/bench's decide probe sets
	// it (a pinned surface), and startup pricing in the selection (ROADMAP
	// item 1(b)) is to be its reader.
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
	// (DefaultDelta when not positive).
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
	// all observe is predicted once per target (predictor.Shared).
	// Predictions keep their bits; nil gives the session a private
	// predictor.
	Shared *predictor.Shared
	// Offline supplies the warm-start epoch estimate; required.
	Offline *predictor.Offline
	// OfflineSeed seeds the offline sampling run.
	OfflineSeed uint64
	// Variant switches on a baseline's departures from Algorithm 2; the
	// zero value is CE-scaling's own.
	Variant Variant
	// Obs, when set, records the per-epoch decision log (observed loss,
	// fitted prediction, drift vs δ, path taken, allocation chosen) as
	// trace instants on the job's timeline. Nil disables recording.
	Obs *obs.Observer
}

// Variant holds the documented traits by which a baseline's training
// controller departs from Algorithm 2 (PAPER §IV). Siren [9] has all three.
type Variant struct {
	// FixedEstimate keeps the offline epoch estimate for the whole run: the
	// online predictor never observes a loss or fits, and the session
	// re-selects every epoch, since a fixed estimate has no drift to watch.
	FixedEstimate bool
	// Explore moves every selection, Initial's included, one step toward
	// faster, one toward slower or none (ε-greedy exploration, as in
	// Schuler et al.), drawn from a stream seeded with OfflineSeed.
	Explore bool
	// Literal takes the constrained selection as it is: no relaxed retry,
	// no escalation and no 10 % switching hysteresis. A selection that
	// finds nothing falls back to the time-sorted extreme: the fastest
	// candidate under a QoS deadline and the slowest under a budget. The
	// slowest is not always the cheapest per epoch: on BERT's S3 grid it
	// costs $0.849 an epoch against the cheapest point's $0.428.
	Literal bool
}

// Siren is the Variant of the Siren baseline [9]: a fixed up-front epoch
// estimate, ±1 exploration after every selection, and literal selection.
var Siren = Variant{FixedEstimate: true, Explore: true, Literal: true}

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
	// rng draws an Explore variant's steps; nil otherwise.
	rng *sim.Rand

	// Metrics.
	Restarts        int
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
		cfg.Delta = DefaultDelta
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
	if cfg.Variant.Explore {
		s.rng = sim.NewRand(cfg.OfflineSeed)
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

// fallback is the allocation a selection that finds nothing falls back to:
// the fastest under a QoS deadline; under a budget the cheapest per epoch,
// or for a Literal variant the slowest.
func (s *Scheduler) fallback() cost.Allocation {
	switch {
	case s.cfg.Budget <= 0:
		return s.fastest()
	case s.cfg.Variant.Literal:
		return s.cfg.Candidates[len(s.cfg.Candidates)-1].Alloc
	}
	return s.cheapest()
}

// index returns a's position in the candidate list, or -1.
func (s *Scheduler) index(a cost.Allocation) int {
	for i, p := range s.cfg.Candidates {
		if p.Alloc == a {
			return i
		}
	}
	return -1
}

// explore applies an Explore variant's step to the selected allocation a.
func (s *Scheduler) explore(a cost.Allocation) cost.Allocation {
	if s.rng == nil {
		return a
	}
	i := s.index(a) + s.rng.Intn(3) - 1
	return s.cfg.Candidates[min(max(i, 0), len(s.cfg.Candidates)-1)].Alloc
}

// escalate moves the current allocation one step along the time-sorted
// candidate list: toward faster under a QoS deadline, toward cheaper (in
// epoch cost) under a budget.
func (s *Scheduler) escalate() cost.Allocation {
	idx := s.index(s.alloc)
	if s.cfg.QoS > 0 {
		// One step faster; the fastest from the top or an unknown point.
		return s.cfg.Candidates[max(idx-1, 0)].Alloc
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
// candidate set, or its fallback when nothing satisfies the constraint.
func (s *Scheduler) Initial() (cost.Allocation, int) {
	est := s.cfg.Offline.PredictEpochs(s.cfg.TargetLoss, s.cfg.OfflineSeed)
	s.lastPrediction = est
	a, ok := s.selectBest(est, 0, 0)
	if !ok && len(s.cfg.Candidates) > 0 {
		a, ok = s.fallback(), true
	}
	if ok {
		s.alloc = s.explore(a)
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
		s.PlanningSeconds += cost.EstimateSeconds
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
	i, j := s.index(s.alloc), s.index(next)
	if i < 0 || j < 0 {
		return true // unknown current point: trust the re-selection
	}
	cur, nxt := &s.cfg.Candidates[i], &s.cfg.Candidates[j]
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
// refit, and re-select the allocation when the prediction drifts past δ
// (every epoch for a FixedEstimate variant).
func (s *Scheduler) decide(epoch int, loss float64, elapsed, spent float64) trainer.Decision {
	fixed, literal := s.cfg.Variant.FixedEstimate, s.cfg.Variant.Literal
	if !fixed {
		s.online.Observe(epoch, loss)
	}

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
	// select (line 10), relax (the 1.15-stretched retry),
	// escalate-panic (constraint unmeetable under every candidate), or
	// fallback (a Literal variant's answer to the same).
	path := "no-prediction"
	var drift float64
	predicted, ok := s.lastPrediction, fixed
	if !fixed {
		predicted, ok = s.online.PredictTotalEpochs(s.cfg.TargetLoss)
	}
	if ok {
		path = "within-delta"
		drift = math.Abs(float64(predicted-s.lastPrediction)) / math.Max(float64(s.lastPrediction), 1)
		if drift > s.cfg.Delta || s.panicked || fixed {
			s.lastPrediction = predicted
			remaining := max(predicted-epoch, 1)
			path = "select"
			next, found := s.selectBest(remaining, elapsed, spent)
			if !found && !literal {
				// Mild stretch before panicking: a noisy prediction
				// that barely misses the constraint should not flap
				// the job to an extreme allocation.
				path = "relax"
				next, found = s.selectBestRelaxed(remaining, elapsed, spent, 1.15)
			}
			switch {
			case found:
				s.panicked = false
			case len(s.cfg.Candidates) == 0:
			case literal:
				path = "fallback"
				next, found = s.fallback(), true
			default:
				// The constraint can no longer be met under any
				// allocation. Escalate one step along the frontier —
				// faster under a deadline, cheaper under a budget —
				// rather than flapping straight to the extreme: the
				// panicked flag re-evaluates every epoch, so genuine
				// pressure keeps escalating while a one-epoch fit
				// wobble costs only one step.
				path = "escalate-panic"
				next, found = s.escalate(), true
				s.panicked = true
			}
			if found {
				next = s.explore(next)
			}
			if found && next != s.alloc && (literal || s.worthSwitching(next, remaining, elapsed, spent)) {
				s.alloc = next
				s.Restarts++
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
