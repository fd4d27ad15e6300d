package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/planner"
	"repro/internal/sha"
	"repro/internal/storage"
	"repro/internal/trainer"
	"repro/internal/workload"
)

func init() {
	register("abl-gap", ablGap)
	register("abl-workflow", ablWorkflow)
	register("abl-asp", ablASP)
	register("abl-hyperband", ablHyperband)
	register("abl-pocket", ablPocket)
	register("abl-faults", ablFaults)
	register("abl-bohb", ablBOHB)
	register("abl-cluster", ablCluster)
}

// ablGap — optimality gap of the greedy heuristic planner (Algorithm 1)
// against an exact multiple-choice-knapsack dynamic program. The paper
// argues the NP-hard partitioning only needs a heuristic; this quantifies
// what the heuristic leaves on the table on this substrate.
func ablGap(_ uint64, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "abl-gap",
		Title:   "Greedy planner vs exact MCKP optimum (JCT-min given budget, 256 trials)",
		Headers: []string{"model", "budget mult", "static JCT", "greedy JCT", "exact JCT", "greedy gap", "greedy evals", "exact states"},
		Notes:   "exact = budget-discretized DP (4000 buckets) over (stage, budget, prev-memory); gap = (greedy-exact)/exact; the DP is orders of magnitude more work than the greedy's candidate evaluations",
	}
	models := workload.Evaluated()
	return cellRows(t, cfg, len(models), func(i int) ([][]string, error) {
		// The two budget multiples share this model's planner, so they stay
		// serial inside the cell.
		w := models[i]
		fw := core.New(w)
		stages := planner.SHAStages(256, 2, 2)
		pl, err := fw.Planner(stages, core.Options{})
		if err != nil {
			return nil, err
		}
		cheapest := pl.OptimalStatic(0, 1e15)
		var rows [][]string
		for _, mult := range []float64{1.2, 1.5} {
			budget := cheapest.Cost * mult
			static := pl.OptimalStatic(budget, 0)
			greedy := pl.PlanMinJCT(budget)
			exact, ok := pl.ExactMinJCT(budget, 4000)
			if !ok {
				return nil, fmt.Errorf("abl-gap: %s: exact solver found no plan", w.Name)
			}
			gap := (greedy.JCT - exact.JCT) / exact.JCT
			rows = append(rows, []string{
				w.Name, fmt.Sprintf("%.1fx", mult),
				seconds(static.JCT), seconds(greedy.JCT), seconds(exact.JCT),
				pct(gap),
				fmt.Sprintf("%d", greedy.Evaluated),
				fmt.Sprintf("%d", 4000*len(stages)*len(fw.Pareto)),
			})
		}
		return rows, nil
	})
}

// ablWorkflow — the end-to-end workflow of Fig. 1: hyperparameter tuning
// followed by training the winner, under one overall constraint.
func ablWorkflow(seed uint64, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "abl-workflow",
		Title:   "End-to-end workflow (Fig. 1): tuning phase + training phase under one budget",
		Headers: []string{"model", "budget", "tune JCT", "tune cost", "winner lr", "train JCT", "train cost", "total", "within budget"},
		Notes:   "64 trials, tuning reserved 60% of the budget; the training phase runs the tuning winner's hyperparameters to the target loss",
	}
	models := []*workload.Model{workload.MobileNet(), workload.ResNet50()}
	stages := planner.SHAStages(64, 2, 2)
	return cellRows(t, cfg, len(models), func(i int) ([][]string, error) {
		w := models[i]
		fw := core.New(w)
		// Size the budget from the tuning static reference plus training
		// probe, like the per-phase experiments do.
		pl, err := fw.Planner(stages, core.Options{})
		if err != nil {
			return nil, err
		}
		budget := pl.OptimalStatic(0, 1e15).Cost * 2
		out, err := fw.RunWorkflow(core.WorkflowOptions{
			Budget: budget, Stages: stages, Seed: seed,
		}, trainer.NewRunner(seed))
		if err != nil {
			return nil, fmt.Errorf("abl-workflow: %s: %w", w.Name, err)
		}
		return [][]string{{
			w.Name, dollars(budget),
			seconds(out.Tune.Run.JCT), dollars(out.Tune.Run.TotalCost),
			fmt.Sprintf("%.5f", out.BestHyperparams.LR),
			seconds(out.Train.Result.JCT), dollars(out.Train.Result.TotalCost),
			dollars(out.TotalCost),
			fmt.Sprintf("%v", out.WithinConstraint),
		}}, nil
	})
}

// ablASP — BSP vs asynchronous (Siren-style) training under identical
// allocations: ASP epochs are faster (no barrier, overlapped transfers) but
// staleness demands more of them, and the balance shifts with the worker
// count and the storage service.
func ablASP(seed uint64, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "abl-asp",
		Title:   "BSP vs asynchronous training under the same allocation",
		Headers: []string{"model", "allocation", "mode", "epochs", "JCT", "cost", "converged"},
		Notes:   "ASP follows the mean worker with 2 overlapped transfers/iteration; staleness dilutes per-epoch progress by 1/(1+0.12 ln n)",
	}
	cases := []struct {
		w *workload.Model
		a cost.Allocation
	}{
		{workload.MobileNet(), cost.Allocation{N: 10, MemMB: 1769, Storage: storage.S3}},
		{workload.MobileNet(), cost.Allocation{N: 50, MemMB: 1769, Storage: storage.S3}},
		{workload.LRHiggs(), cost.Allocation{N: 50, MemMB: 1769, Storage: storage.S3}},
	}
	// Flatten the case x mode matrix into independent cells.
	return cellRows(t, cfg, 2*len(cases), func(i int) ([][]string, error) {
		c := cases[i/2]
		async := i%2 == 1
		mode := "BSP"
		if async {
			mode = "ASP"
		}
		res := new(trainer.Result)
		if err := trainer.NewRunner(seed+17).Run(trainer.Config{
			Workload:   c.w,
			Engine:     c.w.NewEngine(workload.Hyperparams{LR: c.w.DefaultLR}, seed),
			Alloc:      c.a,
			TargetLoss: c.w.TargetLoss,
			MaxEpochs:  2000,
			Async:      async,
		}, res); err != nil {
			return nil, err
		}
		return [][]string{{
			c.w.Name, c.a.String(), mode,
			fmt.Sprintf("%d", res.Epochs), seconds(res.JCT), dollars(res.TotalCost),
			fmt.Sprintf("%v", res.Converged),
		}}, nil
	})
}

// ablHyperband — the §II-A claim that CE-scaling's partitioning applies to
// other early-stopping tuners: run Hyperband with CE's greedy planner vs a
// static plan per bracket.
func ablHyperband(seed uint64, cfg Config) (*Table, error) {
	w := workload.MobileNet()
	fw := core.New(w)
	t := &Table{
		ID:      "abl-hyperband",
		Title:   "Hyperband (R=9, eta=3) with CE-scaling's per-bracket partitioning vs static plans",
		Headers: []string{"planner", "best loss", "JCT", "cost", "brackets"},
		Notes:   "each Hyperband bracket's stage structure feeds the same greedy heuristic planner used for SHA; budget per bracket = 1.3x its cheapest static plan",
	}
	variants := []struct {
		name       string
		usePlanner bool
	}{{"CE-scaling", true}, {"static", false}}
	return cellRows(t, cfg, len(variants), func(i int) ([][]string, error) {
		v := variants[i]
		res, err := sha.RunHyperband(sha.HyperbandConfig{
			Workload:    w,
			MaxEpochs:   9,
			Eta:         3,
			Runner:      trainer.NewRunner(seed + 31),
			Seed:        seed,
			PlanBracket: bracketPlanner(fw, v.usePlanner),
		})
		if err != nil {
			return nil, cellErr(v.name, err)
		}
		return [][]string{{
			v.name, f4(res.Best.Loss), seconds(res.JCT), dollars(res.TotalCost),
			fmt.Sprintf("%d", len(res.Brackets)),
		}}, nil
	})
}

// bracketPlanner plans every Hyperband bracket over fw's Pareto set: the
// cheapest static plan, or, with greedy, Algorithm 1 under 1.3x its cost.
func bracketPlanner(fw *core.Framework, greedy bool) func([]planner.Stage) (planner.Plan, error) {
	return func(stages []planner.Stage) (planner.Plan, error) {
		pl, err := fw.Planner(stages, core.Options{})
		if err != nil {
			return planner.Plan{}, err
		}
		static := pl.OptimalStatic(0, 1e15)
		if !greedy {
			return static.Plan, nil
		}
		return pl.PlanMinJCT(static.Cost * 1.3).Plan, nil
	}
}

// ablPocket — extending the storage dimension with a Pocket-style elastic
// ephemeral store (the paper's citation [22], not in its evaluation): does
// a fifth service change CE-scaling's picks?
func ablPocket(seed uint64, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "abl-pocket",
		Title:   "Extending the storage dimension with Pocket-style ephemeral storage",
		Headers: []string{"model", "services", "frontier size", "chosen storage", "JCT", "cost"},
		Notes:   "Pocket: auto-scaling, in-memory latency, request-charged at 5x S3 — a middle ground between S3 and ElastiCache; budget = geometric mean of the cheap and fast probes",
	}
	models := []*workload.Model{workload.MobileNet(), workload.BERT()}
	extended := cost.DefaultGrid()
	extended.Storages = storage.ExtendedKinds()
	// A model's two frameworks share their sessions' loss histories.
	fws := make([]*core.Framework, 0, 2*len(models))
	for _, w := range models {
		fw := core.New(w)
		fws = append(fws, fw, fw.WithGrid(extended))
	}
	return cellRows(t, cfg, len(fws), func(i int) ([][]string, error) {
		fw := fws[i]
		w := fw.Workload
		label := "paper's four"
		if i%2 == 1 {
			label = "four + Pocket"
		}
		probe, err := trainRef(fw, seed)
		if err != nil {
			return nil, err
		}
		res, err := runCE(cfg, fw, core.Options{Budget: probe.budgetRef(), Seed: seed}, seed, "abl-pocket/"+w.Name+"/"+label)
		if err != nil {
			return nil, err
		}
		return [][]string{{
			w.Name, label,
			fmt.Sprintf("%d", len(fw.Pareto)),
			mostEpochsStorage(res.Trace).String(), seconds(res.JCT), dollars(res.TotalCost),
		}}, nil
	})
}

// mostEpochsStorage is the storage service a job spent the most epochs on
// (abl-pocket's "chosen storage"); a tie goes to the lowest storage.Kind.
func mostEpochsStorage(trace []trainer.EpochReport) storage.Kind {
	var chosen storage.Kind
	best := -1
	for _, k := range storage.ExtendedKinds() {
		n := 0
		for _, e := range trace {
			if e.Alloc.Storage == k {
				n++
			}
		}
		if n > best {
			best, chosen = n, k
		}
	}
	return chosen
}

// ablFaults — failure injection: per-function crash rates inflate JCT and
// cost; per-epoch checkpointing through external storage bounds the damage,
// while disabling it makes every crash lose the whole job's progress.
func ablFaults(seed uint64, cfg Config) (*Table, error) {
	w := workload.MobileNet()
	t := &Table{
		ID:      "abl-faults",
		Title:   "Failure injection: crash rate vs JCT with and without checkpointing (MobileNet, n=10/1769MB/S3)",
		Headers: []string{"failure rate", "checkpointing", "failures", "epochs", "JCT", "failure time", "cost", "converged"},
		Notes:   "failure rate is per function per epoch; a crash aborts the BSP epoch; checkpointed jobs retry the epoch, uncheckpointed jobs restart from the initial model",
	}
	alloc := cost.Allocation{N: 10, MemMB: 1769, Storage: storage.S3}
	type faultCase struct {
		rate       float64
		checkpoint bool
	}
	var combos []faultCase
	for _, rate := range []float64{0, 0.005, 0.01, 0.02} {
		for _, checkpoint := range []bool{true, false} {
			if rate == 0 && !checkpoint {
				continue // identical to the checkpointed row
			}
			combos = append(combos, faultCase{rate, checkpoint})
		}
	}
	return cellRows(t, cfg, len(combos), func(i int) ([][]string, error) {
		c := combos[i]
		var faults *fault.Schedule
		if c.rate > 0 {
			faults = fault.MustNew(fault.CrashWindow(0, math.MaxFloat64, c.rate))
		}
		res := new(trainer.Result)
		if err := trainer.NewRunner(seed+53).Run(trainer.Config{
			Workload:          w,
			Engine:            w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, seed),
			Alloc:             alloc,
			TargetLoss:        w.TargetLoss,
			MaxEpochs:         400,
			DisableCheckpoint: !c.checkpoint,
			Faults:            faults,
		}, res); err != nil {
			return nil, err
		}
		return [][]string{{
			pct(c.rate), fmt.Sprintf("%v", c.checkpoint),
			fmt.Sprintf("%d", res.Failures), fmt.Sprintf("%d", res.Epochs),
			seconds(res.JCT), seconds(res.FailureTime), dollars(res.TotalCost),
			fmt.Sprintf("%v", res.Converged),
		}}, nil
	})
}

// ablBOHB — BOHB (model-based sampling, the paper's [20]) vs plain
// Hyperband under identical brackets and partitioning: the TPE sampler
// learns across brackets, so later brackets explore near the good region.
func ablBOHB(seed uint64, cfg Config) (*Table, error) {
	w := workload.ResNet50()
	fw := core.New(w)
	t := &Table{
		ID:      "abl-bohb",
		Title:   "BOHB (TPE sampling) vs Hyperband under identical CE-scaling partitioning (ResNet50)",
		Headers: []string{"tuner", "best loss", "winner lr", "JCT", "cost"},
		Notes:   fmt.Sprintf("R=9, eta=3; optimum lr %.5f; both tuners use the greedy planner per bracket", w.LROpt),
	}
	planBracket := bracketPlanner(fw, true)
	tuners := []struct {
		name string
		run  func() (*sha.HyperbandResult, error)
	}{
		{"Hyperband", func() (*sha.HyperbandResult, error) {
			return sha.RunHyperband(sha.HyperbandConfig{
				Workload: w, MaxEpochs: 9, Eta: 3,
				Runner: trainer.NewRunner(seed + 61), Seed: seed,
				PlanBracket: planBracket,
			})
		}},
		{"BOHB", func() (*sha.HyperbandResult, error) {
			res, _, err := sha.RunBOHB(sha.HyperbandConfig{
				Workload: w, MaxEpochs: 9, Eta: 3,
				Runner: trainer.NewRunner(seed + 61), Seed: seed,
				PlanBracket: planBracket,
			})
			return res, err
		}},
	}
	return cellRows(t, cfg, len(tuners), func(i int) ([][]string, error) {
		res, err := tuners[i].run()
		if err != nil {
			return nil, cellErr(tuners[i].name, err)
		}
		return [][]string{{
			tuners[i].name, f4(res.Best.Loss), fmt.Sprintf("%.5f", res.Best.HP.LR),
			seconds(res.JCT), dollars(res.TotalCost),
		}}, nil
	})
}

// ablCluster — multiple tenants sharing one serverless account: CE-planned
// jobs contend for the 3000-function concurrency cap, queueing when their
// groups cannot be admitted (the multi-tenant setting of SLAQ/Optimus).
func ablCluster(seed uint64, _ Config) (*Table, error) {
	w := workload.MobileNet()
	t := &Table{
		ID:      "abl-cluster",
		Title:   "Multi-tenant contention: four 1500-function jobs on a 3000-function account",
		Headers: []string{"job", "arrival", "queue delay", "turnaround", "JCT", "converged"},
		Notes:   "two jobs fit concurrently; the rest queue FIFO until a completion frees capacity",
	}
	r := trainer.NewRunner(seed + 71)
	var jobs []trainer.Arrival
	for i := 0; i < 4; i++ {
		jobs = append(jobs, trainer.Arrival{
			At: float64(i) * 30,
			Config: trainer.Config{
				Workload:   w,
				Engine:     w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, seed+uint64(i)),
				Alloc:      cost.Allocation{N: 1500, MemMB: 1769, Storage: storage.ElastiCache},
				TargetLoss: w.TargetLoss,
				MaxEpochs:  400,
			},
		})
	}
	outs, err := r.RunShared(jobs)
	if err != nil {
		return nil, err
	}
	for _, o := range outs {
		at := jobs[o.Job].At
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("job-%d", o.Job+1), seconds(at), seconds(o.Admitted - at), seconds(o.Finished - at),
			seconds(o.Result.JCT), fmt.Sprintf("%v", o.Result.Converged),
		})
	}
	t.Notes += fmt.Sprintf("; makespan %s", seconds(outs[len(outs)-1].Finished))
	return t, nil
}
