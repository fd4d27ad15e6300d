package experiments

import (
	"fmt"
	"math"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/planner"
	"repro/internal/sha"
	"repro/internal/storage"
	"repro/internal/trainer"
	"repro/internal/workload"
)

func init() {
	register("fig2", fig2)
	register("fig3", fig3)
	register("fig9", fig9)
	register("fig10", fig10)
	register("fig11", fig11)
	register("fig14", fig14)
	register("fig16", fig16)
	register("fig21a", fig21a)
}

// hptTrials is the scaled trial population (paper: 16384; see package doc).
const hptTrials = 256

const hptEpochsPerStage = 2

// hptSetup profiles a workload and derives binding reference constraints
// from its static optima.
type hptSetup struct {
	fw     *core.Framework
	stages []planner.Stage
	pl     *planner.Planner // over the Pareto set
	// cheapCost / cheapJCT: the cost-optimal static plan over S3-only
	// candidates (the baselines' native storage); referencing constraints
	// to the S3 static plan gives every system workable headroom, as the
	// paper's setup does.
	cheapCost, cheapJCT float64
	// fastJCT: the JCT-optimal S3 static plan's JCT.
	fastJCT float64
}

func newHPT(w *workload.Model, trials int) (*hptSetup, error) {
	fw := core.New(w)
	stages := planner.SHAStages(trials, 2, hptEpochsPerStage)
	pl, err := planner.New(fw.Model, stages, fw.Pareto)
	if err != nil {
		return nil, err
	}
	s3pl, err := planner.New(fw.Model, stages, baselines.FilterByStorage(fw.Full, storage.S3))
	if err != nil {
		return nil, err
	}
	cheap := s3pl.OptimalStatic(0, 1e15) // min cost, no deadline pressure
	fast := s3pl.OptimalStatic(1e15, 0)  // min JCT, no budget pressure
	return &hptSetup{
		fw: fw, stages: stages, pl: pl,
		cheapCost: cheap.Cost, cheapJCT: cheap.JCT, fastJCT: fast.JCT,
	}, nil
}

// budgetRef is the default binding budget: 30% above the cheapest S3
// static plan.
func (h *hptSetup) budgetRef() float64 { return h.cheapCost * 1.3 }

// qosRef is the default binding deadline: the geometric mean of the
// fastest and cheapest S3 static JCTs, clamped above the fastest.
func (h *hptSetup) qosRef() float64 {
	q := sqrtProduct(h.fastJCT, h.cheapJCT)
	if q < h.fastJCT*1.05 {
		q = h.fastJCT * 1.05
	}
	return q
}

// sqrtProduct is the geometric mean of two positive references.
func sqrtProduct(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return a
	}
	return math.Sqrt(a * b)
}

// execute runs a partitioning plan through the tuning driver. capN > 0
// limits per-stage concurrency (the Fixed baseline's equal share).
func (h *hptSetup) execute(plan planner.Plan, trials int, seed uint64, capN int) (*sha.Result, error) {
	return sha.Run(sha.Config{
		Workload: h.fw.Workload,
		Trials:   trials,
		Eta:      2, EpochsPerStage: hptEpochsPerStage,
		Plan:           plan,
		Runner:         trainer.NewRunner(seed),
		Seed:           seed,
		ConcurrencyCap: capN,
	})
}

// hptSystems runs the Fig. 9/10 system matrix for one model: CE-scaling,
// LambdaML (static), Siren and Fixed, under a budget (qos=0) or a QoS
// deadline (budget=0).
func (h *hptSetup) hptSystems(cfg Config, trials int, budget, qos float64, seed uint64) (map[string]*sha.Result, map[string]planner.Result, error) {
	plans := map[string]planner.Result{}

	var ce planner.Result
	if budget > 0 {
		ce = h.pl.PlanMinJCT(budget)
	} else {
		ce = h.pl.PlanMinCost(qos)
	}
	plans["CE-scaling"] = ce

	lam, err := baselines.LambdaMLPlan(h.fw.Model, h.stages, h.fw.Full, budget, qos)
	if err != nil {
		return nil, nil, err
	}
	plans["LambdaML"] = lam

	sir, err := baselines.SirenPlan(h.fw.Model, h.stages, h.fw.Full, budget, qos)
	if err != nil {
		return nil, nil, err
	}
	plans["Siren"] = sir

	plans["Fixed"] = h.pl.FixedPlan(budget, qos)

	// Planning above is serial (the systems share h.pl and its Evaluated
	// counter); the executions are independent — each gets a fresh Runner —
	// so they run as parallel cells merged back in system order.
	fixedCap := h.pl.ConcurrencyShare()
	results, err := cells(cfg, len(hptOrder), func(i int) (*sha.Result, error) {
		name := hptOrder[i]
		capN := 0
		if name == "Fixed" {
			capN = fixedCap
		}
		run, err := h.execute(plans[name].Plan, trials, seed, capN)
		return run, cellErr(name, err)
	})
	if err != nil {
		return nil, nil, err
	}
	runs := map[string]*sha.Result{}
	for i, name := range hptOrder {
		runs[name] = results[i]
	}
	return runs, plans, nil
}

var hptOrder = []string{"CE-scaling", "LambdaML", "Siren", "Fixed"}

// fig9 — execution time of hyperparameter tuning given a budget.
func fig9(seed uint64, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "fig9",
		Title:   "HPT JCT given a budget (executed on the simulated substrate)",
		Headers: []string{"model", "system", "JCT", "cost", "budget", "JCT vs LambdaML"},
		Notes:   fmt.Sprintf("%d trials (paper: 16384), eta=2, %d epochs/stage; budget = 1.3x cheapest static plan", hptTrials, hptEpochsPerStage),
	}
	models := workload.Evaluated()
	blocks, err := cells(cfg, len(models), func(i int) ([][]string, error) {
		w := models[i]
		h, err := newHPT(w, hptTrials)
		if err != nil {
			return nil, err
		}
		budget := h.budgetRef()
		runs, _, err := h.hptSystems(cfg, hptTrials, budget, 0, seed)
		if err != nil {
			return nil, cellErr(w.Name, err)
		}
		base := runs["LambdaML"].JCT
		var rows [][]string
		for _, sys := range hptOrder {
			r := runs[sys]
			rows = append(rows, []string{
				w.Name, sys, seconds(r.JCT), dollars(r.TotalCost), dollars(budget),
				pct(reduction(base, r.JCT)),
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	for _, rows := range blocks {
		t.Rows = append(t.Rows, rows...)
	}
	return t, nil
}

// fig10 — cost of hyperparameter tuning given a QoS constraint.
func fig10(seed uint64, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "fig10",
		Title:   "HPT cost given a QoS constraint (executed)",
		Headers: []string{"model", "system", "cost", "JCT", "QoS", "cost vs LambdaML"},
		Notes:   fmt.Sprintf("%d trials; QoS = geometric mean of fastest/cheapest static JCT", hptTrials),
	}
	models := workload.Evaluated()
	blocks, err := cells(cfg, len(models), func(i int) ([][]string, error) {
		w := models[i]
		h, err := newHPT(w, hptTrials)
		if err != nil {
			return nil, err
		}
		qos := h.qosRef()
		runs, _, err := h.hptSystems(cfg, hptTrials, 0, qos, seed)
		if err != nil {
			return nil, cellErr(w.Name, err)
		}
		base := runs["LambdaML"].TotalCost
		var rows [][]string
		for _, sys := range hptOrder {
			r := runs[sys]
			rows = append(rows, []string{
				w.Name, sys, dollars(r.TotalCost), seconds(r.JCT), seconds(qos),
				pct(reduction(base, r.TotalCost)),
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	for _, rows := range blocks {
		t.Rows = append(t.Rows, rows...)
	}
	return t, nil
}

// fig11 — normalized per-trial budget per stage for LR-Higgs.
func fig11(seed uint64, _ Config) (*Table, error) {
	w := workload.LRHiggs()
	h, err := newHPT(w, 512)
	if err != nil {
		return nil, err
	}
	budget := h.budgetRef()
	ce := h.pl.PlanMinJCT(budget)
	static, err := baselines.LambdaMLPlan(h.fw.Model, h.stages, h.fw.Full, budget, 0)
	if err != nil {
		return nil, err
	}
	fixed := h.pl.FixedPlan(budget, 0)

	perTrial := func(res planner.Result, i int) float64 {
		return h.pl.StageCost(i, res.Plan.Stages[i]) / float64(h.stages[i].Trials)
	}
	t := &Table{
		ID:      "fig11",
		Title:   "Per-trial allocated budget per stage, LR-Higgs (normalized to the static plan)",
		Headers: []string{"stage", "trials", "static", "CE-scaling", "Fixed"},
		Notes:   "512 trials (paper: 16384); values are per-trial stage cost / static per-trial stage cost",
	}
	var staticFirstTwo, staticTotal float64
	for i := range h.stages {
		base := perTrial(static, i)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%d", h.stages[i].Trials),
			"1.00",
			f2(perTrial(ce, i) / base),
			f2(perTrial(fixed, i) / base),
		})
		stageTotal := base * float64(h.stages[i].Trials)
		staticTotal += stageTotal
		if i < 2 {
			staticFirstTwo += stageTotal
		}
	}
	t.Notes += fmt.Sprintf("; static spends %s of its budget in the first two stages", pct(staticFirstTwo/staticTotal))
	_ = seed
	return t, nil
}

// fig2 — the Successive-Halving procedure itself: a 32-trial tuning run
// with per-stage survivor counts and losses, mirroring the paper's worked
// example of repeatedly terminating the bottom-performing trials.
func fig2(seed uint64, _ Config) (*Table, error) {
	w := workload.MobileNet()
	fw := core.New(w)
	stages := planner.SHAStages(32, 2, 2)
	pl, err := planner.New(fw.Model, stages, fw.Pareto)
	if err != nil {
		return nil, err
	}
	static := pl.OptimalStatic(0, 1e15)
	run, err := sha.Run(sha.Config{
		Workload: w, Trials: 32, Eta: 2, EpochsPerStage: 2,
		Plan: static.Plan, Runner: trainer.NewRunner(seed), Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig2",
		Title:   "An early-stopping SHA tuning run (MobileNet, 32 trials, reduction factor 2)",
		Headers: []string{"stage", "running trials", "epochs each", "stage best loss", "stage wall time", "stage cost"},
		Notes:   fmt.Sprintf("winner: trial %d with lr=%.5f (loss %.4f after %d epochs)", run.BestTrial.ID, run.BestTrial.HP.LR, run.BestTrial.Loss, run.BestTrial.Epochs),
	}
	for _, st := range run.Stages {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", st.Stage+1),
			fmt.Sprintf("%d", st.Trials),
			fmt.Sprintf("%d", stages[st.Stage].Epochs),
			f4(st.BestLoss),
			seconds(st.WallTime),
			dollars(st.Cost),
		})
	}
	return t, nil
}

// fig3 — the motivating reallocation example (5 stages): a static plan vs
// recycling resources from stage 1 to later stages at CE-scaling's measured
// pace ("mild") and far beyond it ("aggressive"). Mild recycling cuts the
// total JCT; over-recycling collapses stage 1 into resource competition and
// backfires — the paper's Finding 1.
func fig3(seed uint64, cfg Config) (*Table, error) {
	w := workload.MobileNet()
	fw := core.New(w)
	const trials, eta = 512, 4 // 512 -> 128 -> 32 -> 8 -> 2: five stages
	stages := planner.SHAStages(trials, eta, 2)
	pl, err := planner.New(fw.Model, stages, fw.Pareto)
	if err != nil {
		return nil, err
	}
	cheapest := pl.OptimalStatic(0, 1e15)
	budget := cheapest.Cost * 1.3
	static := pl.OptimalStatic(budget, 0)

	// Mild: CE-scaling's own cost-neutral recycling.
	mild := pl.PlanMinJCT(static.Cost)

	// Aggressive: push stage 1 all the way to the slowest/cheapest
	// allocation regardless of the damage.
	aggressive := mild.Plan.Clone()
	aggressive.Stages[0] = pl.P[len(pl.P)-1].Alloc

	plans := []struct {
		name string
		plan planner.Plan
	}{
		{"static", static.Plan},
		{"recycle (CE)", mild.Plan},
		{"over-recycle", aggressive},
	}
	t := &Table{
		ID:      "fig3",
		Title:   "Per-stage JCT: static vs recycling stage-1 resources (MobileNet, 512 trials, 5 stages)",
		Headers: []string{"plan", "stage1", "stage2", "stage3", "stage4", "stage5", "total JCT", "cost"},
		Notes:   "recycle (CE) = the greedy planner's cost-neutral reallocation; over-recycle forces stage 1 to the slowest allocation (the paper's 30% case)",
	}
	rows, err := cells(cfg, len(plans), func(i int) ([]string, error) {
		p := plans[i]
		run, err := sha.Run(sha.Config{
			Workload: w, Trials: trials, Eta: eta, EpochsPerStage: 2,
			Plan: p.plan, Runner: trainer.NewRunner(seed), Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		row := []string{p.name}
		for _, st := range run.Stages {
			row = append(row, seconds(st.WallTime))
		}
		return append(row, seconds(run.JCT), dollars(run.TotalCost)), nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	return t, nil
}

// fig14 — HPT for LR-YFCC under varying budget and QoS constraints.
func fig14(seed uint64, cfg Config) (*Table, error) {
	w := workload.LRYFCC()
	h, err := newHPT(w, 128)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig14",
		Title:   "HPT under varying constraints, LR-YFCC (executed)",
		Headers: []string{"constraint", "system", "JCT", "cost"},
		Notes:   "128 trials; budget multiples of the cheapest static plan, QoS multiples of the fastest static JCT",
	}
	for _, mult := range []float64{1.1, 1.3, 1.6, 2.0} {
		budget := h.cheapCost * mult
		runs, _, err := h.hptSystems(cfg, 128, budget, 0, seed)
		if err != nil {
			return nil, err
		}
		for _, sys := range hptOrder {
			r := runs[sys]
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("budget %.1fx", mult), sys, seconds(r.JCT), dollars(r.TotalCost),
			})
		}
	}
	for _, mult := range []float64{1.2, 1.5, 2.0, 3.0} {
		qos := h.fastJCT * mult
		runs, _, err := h.hptSystems(cfg, 128, 0, qos, seed)
		if err != nil {
			return nil, err
		}
		for _, sys := range hptOrder {
			r := runs[sys]
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("QoS %.1fx", mult), sys, seconds(r.JCT), dollars(r.TotalCost),
			})
		}
	}
	return t, nil
}

// fig16 — CE-scaling vs Siren vs Cirrus under the same pinned storage for
// hyperparameter tuning (MobileNet-Cifar10).
func fig16(seed uint64, cfg Config) (*Table, error) {
	w := workload.MobileNet()
	h, err := newHPT(w, hptTrials)
	if err != nil {
		return nil, err
	}
	budget := h.budgetRef()
	t := &Table{
		ID:      "fig16",
		Title:   "HPT with all systems pinned to the same storage, MobileNet-Cifar10 (executed)",
		Headers: []string{"storage", "system", "JCT", "cost"},
		Notes:   fmt.Sprintf("%d trials; budget = 1.3x cheapest static plan", hptTrials),
	}
	for _, kind := range []storage.Kind{storage.S3, storage.VMPS} {
		k := kind
		// CE pinned: plan over the pinned candidate set.
		cePlan, _, err := h.fw.PlanHPT(hptTrials, 2, hptEpochsPerStage, core.Options{Budget: budget, PinStorage: &k, Seed: seed})
		if err != nil {
			return nil, err
		}
		sirPlan, err := baselines.SirenPlanPinned(h.fw.Model, h.stages, h.fw.Full, kind, budget, 0)
		if err != nil {
			return nil, err
		}
		cirPlan, err := baselines.StaticPlanPinned(h.fw.Model, h.stages, h.fw.Full, kind, budget, 0)
		if err != nil {
			return nil, err
		}
		systems := []struct {
			name string
			plan planner.Plan
		}{{"CE-scaling", cePlan.Plan}, {"Siren", sirPlan.Plan}, {"Cirrus", cirPlan.Plan}}
		rows, err := cells(cfg, len(systems), func(i int) ([]string, error) {
			run, err := h.execute(systems[i].plan, hptTrials, seed, 0)
			if err != nil {
				return nil, cellErr(systems[i].name, err)
			}
			return []string{kind.String(), systems[i].name, seconds(run.JCT), dollars(run.TotalCost)}, nil
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, rows...)
	}
	return t, nil
}

// fig21a — planner scheduling overhead: CE-scaling vs WO-pa (full search).
func fig21a(seed uint64, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "fig21a",
		Title:   "HPT planning overhead: Pareto-pruned vs full allocation search (WO-pa)",
		Headers: []string{"model", "variant", "candidates evaluated", "modeled overhead", "search space"},
		Notes:   "modeled overhead = candidates x 50ms estimation latency (the paper's seconds-level budget); search space = candidate allocations the planner scores per decision (|P| after Pareto pruning vs the full |Theta|)",
	}
	models := workload.Evaluated()
	blocks, err := cells(cfg, len(models), func(i int) ([][]string, error) {
		w := models[i]
		fw := core.New(w)
		var rows [][]string
		for _, variant := range []struct {
			name    string
			disable bool
		}{{"CE-scaling", false}, {"WO-pa", true}} {
			res, _, err := fw.PlanHPT(hptTrials, 2, hptEpochsPerStage, core.Options{
				Budget:        1e15,
				DisablePareto: variant.disable,
				Seed:          seed,
			})
			if err != nil {
				return nil, err
			}
			space := len(fw.Pareto)
			if variant.disable {
				space = len(fw.Full)
			}
			rows = append(rows, []string{
				w.Name, variant.name,
				fmt.Sprintf("%d", res.Evaluated),
				seconds(float64(res.Evaluated) * 0.05),
				fmt.Sprintf("%d", space),
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	for _, rows := range blocks {
		t.Rows = append(t.Rows, rows...)
	}
	return t, nil
}
