// Package baselines implements the comparison systems of §IV as allocation
// policies over the same simulated substrate:
//
//   - LambdaML [14]: static allocation with offline sampling-based epoch
//     prediction, S3 as the only storage (CE-scaling minus the greedy
//     heuristic planner and minus online adaptation).
//   - Siren [9]: deep-RL allocator modeled by its documented behaviour —
//     S3-only storage, per-epoch resource adjustment with exploration noise
//     and full (immediate) function restarts, and a bias toward granting
//     early tuning stages more resources.
//   - Cirrus [4]: static allocation pinned to a VM parameter server. The
//     "modified Cirrus" of §IV-C adds CE-scaling's online prediction but
//     keeps VM-PS storage and immediate restarts, so it is no policy of its
//     own: it is internal/core's Algorithm 2 session under
//     core.Options{PinStorage: &storage.VMPS, DisableDelayedRestart: true}.
//
// Every policy consumes the same cost.Model estimates and drives the same
// trainer, so differences in JCT/cost reflect policy, not substrate.
package baselines

import (
	"math"
	"sort"

	"repro/internal/cost"
	"repro/internal/planner"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trainer"
)

// FilterByStorage returns the subset of points using the given service.
func FilterByStorage(points []cost.Point, kind storage.Kind) []cost.Point {
	var out []cost.Point
	for _, p := range points {
		if p.Alloc.Storage == kind {
			out = append(out, p)
		}
	}
	return out
}

// --- Hyperparameter-tuning plans ---

// StaticPlan is the optimal uniform allocation over candidates pinned to
// one storage service: LambdaML's plan over storage.S3 (Fig. 9-10) and
// Cirrus's over storage.VMPS.
func StaticPlan(m *cost.Model, stages []planner.Stage, points []cost.Point, kind storage.Kind, budget, qos float64) (planner.Result, error) {
	pl, err := planner.New(m, stages, FilterByStorage(points, kind))
	if err != nil {
		return planner.Result{}, err
	}
	return pl.OptimalStatic(budget, qos), nil
}

// SirenPlan models Siren's tuning behaviour: a static plan pinned to one
// storage service (storage.S3 for Siren itself, any service for the Fig. 16
// same-storage comparison) whose early stages are then upgraded while the
// constraint allows — the paper's observation that Siren's RL "tends to
// allocate more resources in the early stages", wasting them on trials that
// will be terminated.
func SirenPlan(m *cost.Model, stages []planner.Stage, points []cost.Point, kind storage.Kind, budget, qos float64) (planner.Result, error) {
	pinned := FilterByStorage(points, kind)
	// The upgrade ladder below walks toward lower indices = faster
	// allocations, so the candidate list must be time-sorted.
	sort.Slice(pinned, func(i, j int) bool { return pinned[i].Time < pinned[j].Time })
	pl, err := planner.New(m, stages, pinned)
	if err != nil {
		return planner.Result{}, err
	}
	// Siren warm-starts from the *cheapest* plan satisfying the constraint
	// and then spends its headroom on early stages (the opposite of
	// CE-scaling's recycling), so under a budget its slack goes to trials
	// that will be terminated. Under a QoS constraint upgrades never
	// violate the deadline, so Siren's over-allocation is bounded by a
	// spending cap instead (its RL reward trades speed against cost, with
	// the documented early-stage bias).
	var res planner.Result
	if budget > 0 {
		res = pl.OptimalStatic(0, math.Inf(1)) // cheapest static
		if res.Cost > budget {
			res = pl.OptimalStatic(budget, 0)
		}
	} else {
		res = pl.OptimalStatic(0, qos)
	}
	plan := res.Plan.Clone()
	costCap := math.Inf(1)
	if qos > 0 {
		costCap = res.Cost * 1.6
	}
	// Front-to-back: early stages soak up the headroom first (the bias),
	// then whatever remains trickles to later stages.
	for i := 0; i < len(stages); i++ {
		idx := indexOf(pinned, plan.Stages[i])
		for idx > 0 {
			trial := plan.Clone()
			trial.Stages[i] = pinned[idx-1].Alloc
			jct, c := pl.JCT(trial), pl.Cost(trial)
			// Siren's RL maximizes stage speed, so it never picks an
			// upgrade that slows the stage down (e.g. one that triggers
			// extra admission waves).
			if pl.StageTime(i, trial.Stages[i]) > pl.StageTime(i, plan.Stages[i]) {
				break
			}
			if (budget > 0 && c > budget) || (qos > 0 && jct > qos) || c > costCap {
				break
			}
			plan = trial
			idx--
		}
	}
	jct, c := pl.JCT(plan), pl.Cost(plan)
	feasible := (budget <= 0 || c <= budget) && (qos <= 0 || jct <= qos)
	return planner.Result{Plan: plan, JCT: jct, Cost: c, Feasible: feasible, Evaluated: res.Evaluated}, nil
}

func indexOf(points []cost.Point, a cost.Allocation) int {
	for i, p := range points {
		if p.Alloc == a {
			return i
		}
	}
	return -1
}

// --- Training controllers ---

// SirenTraining adjusts resources every epoch with exploration noise,
// candidates pinned to one storage service and immediate restarts.
type SirenTraining struct {
	candidates []cost.Point
	strict     bool // cost.Strict(candidates)
	budget     float64
	qos        float64
	rng        *sim.Rand
	current    cost.Allocation
	estimated  int

	Restarts int
}

// NewSirenTraining returns Siren's training policy over points, a
// candidate set the caller has already pinned to one storage service
// (Siren's own is the full S3 enumeration: it does not prune with a Pareto
// front). estimate is Siren's up-front epoch estimate (its RL model's
// output, which we take from the offline predictor).
func NewSirenTraining(points []cost.Point, budget, qos float64, estimate int, seed uint64) *SirenTraining {
	if len(points) == 0 {
		panic("baselines: Siren needs a non-empty candidate set")
	}
	cands := make([]cost.Point, len(points))
	copy(cands, points)
	sort.Slice(cands, func(i, j int) bool { return cands[i].Time < cands[j].Time })
	return &SirenTraining{
		candidates: cands,
		strict:     cost.Strict(cands),
		budget:     budget, qos: qos,
		rng:       sim.NewRand(seed),
		estimated: estimate,
	}
}

// Initial picks Siren's starting allocation.
func (s *SirenTraining) Initial() cost.Allocation {
	s.current = s.pick(s.estimated, 0, 0)
	return s.current
}

// pick selects the constrained optimum among the candidates (Algorithm 2's
// cost.Select), then applies exploration noise of ±1 position.
func (s *SirenTraining) pick(remaining int, elapsed, spent float64) cost.Allocation {
	bestIdx, ok := cost.Select(s.candidates, s.strict, remaining, elapsed, spent, s.budget, s.qos)
	if !ok {
		// Constraint hopeless: cheapest under budget, fastest under QoS.
		if s.budget > 0 {
			bestIdx = len(s.candidates) - 1
		} else {
			bestIdx = 0
		}
	}
	// RL exploration: wander one step on the frontier.
	bestIdx += s.rng.Intn(3) - 1
	if bestIdx < 0 {
		bestIdx = 0
	}
	if bestIdx >= len(s.candidates) {
		bestIdx = len(s.candidates) - 1
	}
	return s.candidates[bestIdx].Alloc
}

// Controller returns the per-epoch hook: re-pick every epoch, restart
// immediately whenever the pick changes.
func (s *SirenTraining) Controller() trainer.Controller {
	return func(epoch int, loss float64, elapsed, spent float64) trainer.Decision {
		if s.budget > 0 && spent >= s.budget {
			return trainer.Decision{Stop: true}
		}
		remaining := s.estimated - epoch
		next := s.pick(remaining, elapsed, spent)
		// Siren's decision latency: its RL inference is cheap, but it runs
		// every epoch over all its candidates.
		dec := trainer.Decision{PlanningSeconds: 0.05 * float64(len(s.candidates))}
		if next != s.current {
			s.current = next
			s.Restarts++
			dec.Switch, dec.NewAlloc = true, next
			dec.Delayed = false // Siren stops and restarts functions
		}
		return dec
	}
}
