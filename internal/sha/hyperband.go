package sha

import (
	"fmt"
	"math"

	"repro/internal/planner"
	"repro/internal/sim"
	"repro/internal/trainer"
	"repro/internal/workload"
)

// Hyperband runs several Successive-Halving brackets that trade the number
// of configurations against the per-configuration epoch budget (Li et al.;
// the paper notes in §II-A that its partitioning applies to such
// SHA-derived tuners unchanged, and this driver demonstrates it: each
// bracket's stage structure feeds the same greedy heuristic planner).
type HyperbandConfig struct {
	Workload *workload.Model
	// MaxEpochs is R: the largest epoch budget any single trial may get.
	MaxEpochs int
	// Eta is the reduction factor (default 3, Hyperband's canonical value).
	Eta int
	// PlanBracket maps a bracket's stage structure to a partitioning plan
	// (CE-scaling's planner, a static plan, ...). Required.
	PlanBracket func(stages []planner.Stage) (planner.Plan, error)
	Runner      *trainer.Runner
	Seed        uint64
}

// Bracket describes one Hyperband bracket before execution.
type Bracket struct {
	S      int // bracket index (s_max down to 0)
	Stages []planner.Stage
}

// BracketReport is one executed bracket.
type BracketReport struct {
	Bracket  Bracket
	Result   *Result
	BestLoss float64
}

// HyperbandResult aggregates the full run.
type HyperbandResult struct {
	Brackets  []BracketReport
	Best      *Trial
	JCT       float64 // brackets run sequentially
	TotalCost float64
}

// Brackets enumerates the Hyperband bracket structure for (R, eta):
// s_max = floor(log_eta R); bracket s starts with
// n = ceil((s_max+1)/(s+1) * eta^s) trials at r = R / eta^s epochs, then
// halves by eta while multiplying the per-stage epochs by eta.
func Brackets(maxEpochs, eta int) []Bracket {
	if eta < 2 {
		eta = 3
	}
	sMax := int(math.Floor(math.Log(float64(maxEpochs)) / math.Log(float64(eta))))
	var out []Bracket
	for s := sMax; s >= 0; s-- {
		n := int(math.Ceil(float64(sMax+1) / float64(s+1) * math.Pow(float64(eta), float64(s))))
		r := float64(maxEpochs) * math.Pow(float64(eta), -float64(s))
		var stages []planner.Stage
		trials := n
		epochs := r
		for i := 0; i <= s; i++ {
			e := int(math.Max(1, math.Round(epochs)))
			stages = append(stages, planner.Stage{Trials: trials, Epochs: e})
			trials = int(math.Max(1, math.Floor(float64(trials)/float64(eta))))
			epochs *= float64(eta)
		}
		out = append(out, Bracket{S: s, Stages: stages})
	}
	return out
}

// RunHyperband executes every bracket sequentially and returns the overall
// winner (lowest final loss across brackets).
func RunHyperband(cfg HyperbandConfig) (*HyperbandResult, error) {
	return runBrackets(cfg, 1009, nil, nil)
}

// runBrackets is the bracket loop Hyperband and BOHB share: bracket i runs
// under seed cfg.Seed + i*stride, drawing its trials through sample (nil =
// uniform) and reporting each trial's stage result to onResult.
func runBrackets(cfg HyperbandConfig, stride uint64, sample func(*sim.Rand) workload.Hyperparams, onResult func(*Trial)) (*HyperbandResult, error) {
	if cfg.Workload == nil || cfg.Runner == nil || cfg.PlanBracket == nil {
		return nil, fmt.Errorf("sha: hyperband needs workload, runner and a bracket planner")
	}
	if cfg.Eta < 2 {
		cfg.Eta = 3
	}
	if cfg.MaxEpochs < cfg.Eta {
		return nil, fmt.Errorf("sha: MaxEpochs %d below eta %d", cfg.MaxEpochs, cfg.Eta)
	}
	out := &HyperbandResult{}
	for bi, br := range Brackets(cfg.MaxEpochs, cfg.Eta) {
		if br.Stages[0].Trials < 2 {
			// A single-trial bracket is plain training, not tuning; still
			// runnable but cannot halve. Run it as one stage.
			br.Stages = br.Stages[:1]
		}
		plan, err := cfg.PlanBracket(br.Stages)
		if err != nil {
			return nil, fmt.Errorf("sha: planning bracket s=%d: %w", br.S, err)
		}
		res, err := Run(Config{
			Workload: cfg.Workload,
			Stages:   br.Stages,
			Plan:     plan,
			Runner:   cfg.Runner,
			Seed:     cfg.Seed + uint64(bi)*stride,
			Sample:   sample,
			OnResult: onResult,
		})
		if err != nil {
			return nil, fmt.Errorf("sha: bracket s=%d: %w", br.S, err)
		}
		out.Brackets = append(out.Brackets, BracketReport{
			Bracket: br, Result: res, BestLoss: res.BestTrial.Loss,
		})
		out.JCT += res.JCT
		out.TotalCost += res.TotalCost
		if out.Best == nil || res.BestTrial.Loss < out.Best.Loss {
			out.Best = res.BestTrial
		}
	}
	return out, nil
}
