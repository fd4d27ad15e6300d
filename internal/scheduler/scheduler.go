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
	// it (the candidates carry its estimates) and only cmd/bench's decide
	// probe, a pinned surface, sets it; startup pricing in the selection
	// (ROADMAP item 1(b)) is to be its reader.
	Model *cost.Model
	// Candidates is the allocation set searched at every adjustment, in
	// any order: normally the Pareto set, the full enumeration under the
	// WO-pa ablation. New keeps a time-sorted private copy.
	Candidates []cost.Point
	// Frontier, when set and Candidates is empty, supplies the candidate
	// set as an immutable shared Pareto boundary (cost.ParetoFrontier),
	// adopted without a copy, which is what lets thousands of macro-fleet
	// tenants share one frontier instance.
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
// allocation from Initial, and call Decide after every epoch, or wire
// Controller into the trainer. It names the point it is on by its index in
// the time-sorted candidates, as cost.Select returns it (Current reads it),
// and keeps only what Initial and Decide read. Use a Scheduler through one
// address and never copy it after Initial: its predictor's buffers and the
// Controller it hands out belong to that address.
type Scheduler struct {
	candidates                     []cost.Point
	budget, qos, targetLoss, delta float64
	observer                       *obs.Observer
	offline                        *predictor.Offline
	offlineSeed                    uint64
	online                         predictor.Online
	// rng draws an Explore variant's steps; nil otherwise.
	rng *sim.Rand

	cur            int // index of the current point in candidates; -1 before any selection
	lastPrediction int // latest predicted total epochs (the e of Alg. 2)
	variant        Variant
	delayedRestart bool
	// panicked marks that the last adjustment was a constraint-pressure
	// fallback; while set, the scheduler re-evaluates every epoch instead
	// of waiting for δ drift, so an over-pessimistic early prediction does
	// not pin the job to an extreme allocation.
	panicked bool

	// Metrics.
	Restarts        int
	PlanningSeconds float64
}

// New returns a scheduler for cfg with defaults applied. The candidate set
// is sorted by ascending epoch time, so index 0 is always the fastest
// allocation (the panic fallback under deadline pressure). A shared
// cost.Frontier is adopted as-is — it is already time-sorted and immutable,
// so no per-session copy is made.
func New(cfg Config) Scheduler {
	var cands []cost.Point
	if cfg.Frontier != nil && len(cfg.Candidates) == 0 {
		cands = cfg.Frontier.Points()
	} else {
		cands = make([]cost.Point, len(cfg.Candidates))
		copy(cands, cfg.Candidates)
		sort.Slice(cands, func(i, j int) bool { return cands[i].Time < cands[j].Time })
	}
	s := Scheduler{
		candidates: cands, cur: -1,
		budget: cfg.Budget, qos: cfg.QoS, targetLoss: cfg.TargetLoss, delta: cfg.Delta,
		delayedRestart: cfg.DelayedRestart, variant: cfg.Variant, observer: cfg.Obs,
		offline: cfg.Offline, offlineSeed: cfg.OfflineSeed,
	}
	if s.delta <= 0 {
		s.delta = DefaultDelta
	}
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

// Constraint returns the session's budget and QoS deadline; the one not in
// force is 0.
func (s *Scheduler) Constraint() (budget, qos float64) { return s.budget, s.qos }

// Current returns the candidate the session is on: the last selection
// Initial or Decide made, or the zero Point before any.
func (s *Scheduler) Current() cost.Point {
	if s.cur < 0 {
		return cost.Point{}
	}
	return s.candidates[s.cur]
}

// cheapest returns the index of the lowest-epoch-cost candidate.
func (s *Scheduler) cheapest() int {
	best := 0
	for i, p := range s.candidates {
		if p.Cost < s.candidates[best].Cost {
			best = i
		}
	}
	return best
}

// fallback is the candidate a selection that finds nothing falls back to:
// the fastest (index 0) under a QoS deadline; under a budget the cheapest
// per epoch, or for a Literal variant the slowest.
func (s *Scheduler) fallback() int {
	switch {
	case s.budget <= 0:
		return 0
	case s.variant.Literal:
		return len(s.candidates) - 1
	}
	return s.cheapest()
}

// explore applies an Explore variant's step to the selected candidate i.
func (s *Scheduler) explore(i int) int {
	if s.rng == nil {
		return i
	}
	i += s.rng.Intn(3) - 1
	return min(max(i, 0), len(s.candidates)-1)
}

// escalate moves the current point one step along the time-sorted candidate
// list: toward faster under a QoS deadline, toward cheaper (in epoch cost)
// under a budget. With no current point it takes the fastest, or the
// cheapest.
func (s *Scheduler) escalate() int {
	if s.qos > 0 {
		return max(s.cur-1, 0)
	}
	if s.cur < 0 {
		return s.cheapest()
	}
	// Budget case: the dearest candidate still cheaper per epoch than the
	// current one.
	cur := s.candidates[s.cur].Cost
	best := s.cur
	for i, p := range s.candidates {
		if p.Cost < cur && (best == s.cur || p.Cost > s.candidates[best].Cost) {
			best = i
		}
	}
	return best
}

// Initial computes the starting allocation (Algorithm 2 lines 2-7): an
// offline epoch estimate followed by a constrained selection over the
// candidate set, or its fallback when nothing satisfies the constraint.
func (s *Scheduler) Initial() (cost.Allocation, int) {
	est := s.offline.PredictEpochs(s.targetLoss, s.offlineSeed)
	s.lastPrediction = est
	i, ok := s.selectBest(est, 0, 0, 1)
	if !ok && len(s.candidates) > 0 {
		i, ok = s.fallback(), true
	}
	if ok {
		s.cur = s.explore(i)
	}
	return s.Current().Alloc, est
}

// selectBest is select_best_allocation(b, P, e) (cost.Select) over the
// candidates, with the constraint scaled by relax >= 1: the scheduler
// prefers a mildly stretched constraint over flapping to an extreme
// allocation when online predictions are noisy.
//
// The modeled planning overhead (§IV-G) charges every candidate the scan
// scores. The repeated addition (rather than one multiply) keeps the
// accumulated float bit-identical to the historical per-candidate loop.
func (s *Scheduler) selectBest(remaining int, elapsed, spent, relax float64) (int, bool) {
	for range s.candidates {
		s.PlanningSeconds += cost.EstimateSeconds
	}
	return cost.Select(s.candidates, remaining, elapsed, spent, s.budget*relax, s.qos*relax)
}

// worthSwitching reports whether moving to candidate next is predicted to
// improve the objective by at least 10% over staying put for the remaining
// epochs, or whether staying would violate the constraint. Restarts are not
// free, so marginal predicted gains do not justify one.
func (s *Scheduler) worthSwitching(next, remaining int, elapsed, spent float64) bool {
	if s.cur < 0 {
		return true // no current point: trust the re-selection
	}
	cur, nxt := &s.candidates[s.cur], &s.candidates[next]
	r := float64(remaining)
	if s.budget > 0 {
		if spent+r*cur.Cost > s.budget {
			return true // staying blows the budget
		}
		return r*nxt.Time < 0.9*r*cur.Time
	}
	if elapsed+r*cur.Time > s.qos {
		return true // staying blows the deadline
	}
	return r*nxt.Cost < 0.9*r*cur.Cost
}

// Controller returns the trainer hook implementing Algorithm 2 lines 8-15:
// Decide as a bound value. The binding allocates once per job at wiring
// time; the per-epoch Decide calls it funnels are allocation-free in steady
// state (gated by TestDecisionZeroAlloc).
func (s *Scheduler) Controller() trainer.Controller {
	return s.Decide
}

// Decide is the per-epoch Algorithm 2 body (lines 8-15): observe the loss,
// refit, and re-select the allocation when the prediction drifts past δ
// (every epoch for a FixedEstimate variant).
func (s *Scheduler) Decide(epoch int, loss float64, elapsed, spent float64) trainer.Decision {
	fixed, literal := s.variant.FixedEstimate, s.variant.Literal
	if !fixed {
		s.online.Observe(epoch, loss)
	}

	planningBefore := s.PlanningSeconds
	dec := trainer.Decision{}

	if s.budget > 0 && spent >= s.budget {
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
		predicted, ok = s.online.PredictTotalEpochs(s.targetLoss)
	}
	if ok {
		path = "within-delta"
		drift = math.Abs(float64(predicted-s.lastPrediction)) / math.Max(float64(s.lastPrediction), 1)
		if drift > s.delta || s.panicked || fixed {
			s.lastPrediction = predicted
			remaining := max(predicted-epoch, 1)
			path = "select"
			next, found := s.selectBest(remaining, elapsed, spent, 1)
			if !found && !literal {
				// Mild stretch before panicking: a noisy prediction
				// that barely misses the constraint should not flap
				// the job to an extreme allocation.
				path = "relax"
				next, found = s.selectBest(remaining, elapsed, spent, 1.15)
			}
			switch {
			case found:
				s.panicked = false
			case len(s.candidates) == 0:
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
			if found && next != s.cur && (literal || s.worthSwitching(next, remaining, elapsed, spent)) {
				s.cur = next
				s.Restarts++
				dec.Switch, dec.NewAlloc = true, s.candidates[next].Alloc
				dec.Delayed = s.delayedRestart
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
	if !s.observer.Enabled() {
		return
	}
	restart, a := dec.Switch, s.Current().Alloc
	args := []obs.Arg{
		obs.I("epoch", epoch),
		obs.F("loss", loss),
		obs.I("predicted_total", predicted),
		obs.F("drift", drift),
		obs.F("delta", s.delta),
		obs.S("path", path),
		obs.B("restart", restart),
		obs.B("stop", dec.Stop),
		obs.I("alloc_n", a.N),
		obs.I("alloc_mem_mb", a.MemMB),
		obs.S("alloc_storage", a.Storage.String()),
	}
	if restart {
		args = append(args, obs.B("delayed", dec.Delayed))
	}
	s.observer.Trace().InstantAt(elapsed, "scheduler", "scheduler", "decision", args...)
	s.observer.Stats().Inc("scheduler.decisions")
	s.observer.Stats().Inc("scheduler.path." + path)
	if restart {
		s.observer.Stats().Inc("scheduler.restarts")
	}
}
