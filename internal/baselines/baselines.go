// Package baselines implements the comparison systems of §IV as allocation
// policies over the same simulated substrate:
//
//   - LambdaML [14]: static allocation with offline sampling-based epoch
//     prediction, S3 as the only storage (CE-scaling minus the greedy
//     heuristic planner and minus online adaptation).
//   - Siren [9]: deep-RL allocator modeled by its documented behaviour —
//     S3-only storage, per-epoch resource adjustment with exploration noise
//     and full (immediate) function restarts, and a bias toward granting
//     early tuning stages more resources. Its tuning side is SirenPlan. Its
//     training side, like modified Cirrus below, is no policy of its own:
//     it is internal/core's Algorithm 2 session over the unpruned S3 grid,
//     core.Options{PinStorage: &storage.S3, DisablePareto: true,
//     DisableDelayedRestart: true, Variant: scheduler.Siren}.
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
	"repro/internal/storage"
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
