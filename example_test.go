// Walkthroughs of the CE-scaling framework (the paper's Fig. 6: Pareto
// profiler, Algorithm 1 planner, Algorithm 2 scheduler) over the simulated
// substrate. go test checks every printed line; run them with
//
//	go test -run Example -v .

package repro_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/planner"
	"repro/internal/storage"
	"repro/internal/trainer"
	"repro/internal/workload"
)

// Train logistic regression on a Higgs-like dataset with CE-scaling under a
// budget, and compare against a static allocation.
func Example_quickstart() {
	// 1. Pick a workload and profile it: the Pareto profiler enumerates
	//    (functions, memory, storage) allocations and prunes the cost-JCT
	//    plane to its Pareto boundary.
	w, err := workload.ByName("LR-Higgs")
	if err != nil {
		log.Fatal(err)
	}
	fw := core.New(w)
	fmt.Printf("workload: %s (dataset %s, %.0f MB, model %.3f MB)\n",
		w.Name, w.Dataset.Name, w.Dataset.SizeMB, w.ParamsMB)
	fmt.Printf("profiled %d allocations, Pareto boundary keeps %d\n\n", len(fw.Full), len(fw.Pareto))

	// 2. Train with the adaptive scheduler under a budget: CE-scaling
	//    starts from an offline estimate, fits the convergence curve
	//    online, and re-allocates when predictions drift.
	const budget = 0.50 // dollars
	out, err := fw.Train(core.Options{Budget: budget, Seed: 42}, trainer.NewRunner(42))
	if err != nil {
		log.Fatal(err)
	}
	r := out.Result
	fmt.Printf("CE-scaling under $%.2f budget:\n", budget)
	fmt.Printf("  converged:  %v (loss %.4f, target %.2f)\n", r.Converged, r.FinalLoss, w.TargetLoss)
	fmt.Printf("  epochs:     %d (offline estimate was %d)\n", r.Epochs, out.OfflineEstimate)
	fmt.Printf("  JCT:        %.1fs  (compute %.1fs, sync %.1fs, overhead %.1fs)\n",
		r.JCT, r.ComputeTime, r.SyncTime, r.OverheadTime)
	fmt.Printf("  cost:       $%.4f (functions $%.4f, storage $%.4f, invocations $%.4f)\n",
		r.TotalCost, r.FunctionCost, r.StorageCost, r.InvokeCost)
	fmt.Printf("  restarts:   %d (delayed restart enabled)\n\n", r.Restarts)

	// 3. Compare with a static baseline: the cheapest single allocation
	//    fitting the same budget, never adjusted.
	static := staticBaseline(fw, budget, r.Epochs)
	if static != nil {
		fmt.Printf("static baseline (best fixed allocation under the same budget):\n")
		fmt.Printf("  allocation: %v\n", static.Trace[0].Alloc)
		fmt.Printf("  JCT:        %.1fs   cost: $%.4f\n", static.JCT, static.TotalCost)
		fmt.Printf("  CE-scaling JCT reduction: %.0f%%\n",
			100*(static.JCT-r.JCT)/static.JCT)
	}
	// Output:
	// workload: LR-Higgs (dataset Higgs, 2464 MB, model 0.001 MB)
	// profiled 428 allocations, Pareto boundary keeps 22
	//
	// CE-scaling under $0.50 budget:
	//   converged:  true (loss 0.6585, target 0.66)
	//   epochs:     10 (offline estimate was 9)
	//   JCT:        69.6s  (compute 17.5s, sync 10.8s, overhead 41.2s)
	//   cost:       $0.4116 (functions $0.3795, storage $0.0321, invocations $0.0000)
	//   restarts:   0 (delayed restart enabled)
	//
	// static baseline (best fixed allocation under the same budget):
	//   allocation: (n=200, mem=4096MB, VM-PS)
	//   JCT:        70.1s   cost: $0.4329
	//   CE-scaling JCT reduction: 1%
}

// staticBaseline trains the same workload with the single cheapest Pareto
// allocation whose projected cost fits the budget.
func staticBaseline(fw *core.Framework, budget float64, epochs int) *trainer.Result {
	w := fw.Workload
	var best *cost.Point
	for i := range fw.Pareto {
		p := &fw.Pareto[i]
		if float64(epochs)*p.Cost > budget {
			continue
		}
		if best == nil || p.Time < best.Time {
			best = p
		}
	}
	if best == nil {
		return nil
	}
	res := new(trainer.Result)
	if err := trainer.NewRunner(43).Run(trainer.Config{
		Workload:   w,
		Engine:     w.NewEngine(workload.Hyperparams{LR: w.DefaultLR}, 42),
		Alloc:      best.Alloc,
		TargetLoss: w.TargetLoss,
		MaxEpochs:  500,
	}, res); err != nil {
		log.Fatal(err)
	}
	return res
}

// Hyperparameter tuning: run Successive Halving over MobileNet learning
// rates under a budget, comparing CE-scaling's greedy heuristic resource
// partitioning against the optimal static plan.
func Example_hyperparam() {
	const (
		trials         = 64
		eta            = 2
		epochsPerStage = 2
		seed           = 7
	)
	w, err := workload.ByName("MobileNet-Cifar10")
	if err != nil {
		log.Fatal(err)
	}
	fw := core.New(w)
	stages := planner.SHAStages(trials, eta, epochsPerStage)
	fmt.Printf("tuning %s: %d trials, %d stages, %d epochs per stage\n\n",
		w.Name, trials, len(stages), epochsPerStage)

	// A budget 30% above the cheapest static plan: tight enough that
	// partitioning matters.
	static, err := fw.PlanHPT(stages, core.Options{QoS: 1e15, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	budget := static.Cost * 1.3

	// CE-scaling's greedy heuristic planner recycles resources from early
	// stages (where most trials will be terminated) to later stages.
	plan, err := fw.PlanHPT(stages, core.Options{Budget: budget, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("budget $%.2f — planned partitioning (CE-scaling):\n", budget)
	fmt.Printf("%-6s %-8s %s\n", "stage", "trials", "allocation")
	for i, a := range plan.Plan.Stages {
		fmt.Printf("%-6d %-8d %v\n", i+1, stages[i].Trials, a)
	}
	fmt.Printf("predicted JCT %.0fs, predicted cost $%.2f (feasible=%v)\n\n",
		plan.JCT, plan.Cost, plan.Feasible)

	// Execute the tuning workflow on the simulated substrate.
	out, err := fw.RunHPT(stages, core.Options{Budget: budget, Seed: seed}, trainer.NewRunner(seed))
	if err != nil {
		log.Fatal(err)
	}
	run := out.Run
	fmt.Printf("executed: JCT %.0fs, cost $%.2f\n", run.JCT, run.TotalCost)
	fmt.Printf("winner: trial %d with lr=%.5f momentum=%.2f (loss %.4f after %d epochs)\n",
		run.BestTrial.ID, run.BestTrial.HP.LR, run.BestTrial.HP.Momentum,
		run.BestTrial.Loss, run.BestTrial.Epochs)
	fmt.Printf("the optimum learning rate for this workload is %.5f\n\n", w.LROpt)

	fmt.Println("per-stage execution:")
	fmt.Printf("%-6s %-8s %-7s %-12s %s\n", "stage", "trials", "waves", "wall time", "cost")
	for _, st := range run.Stages {
		fmt.Printf("%-6d %-8d %-7d %-12s $%.2f\n",
			st.Stage+1, st.Trials, st.Waves, fmt.Sprintf("%.0fs", st.WallTime), st.Cost)
	}
	// Output:
	// tuning MobileNet-Cifar10: 64 trials, 6 stages, 2 epochs per stage
	//
	// budget $80.16 — planned partitioning (CE-scaling):
	// stage  trials   allocation
	// 1      64       (n=5, mem=10240MB, VM-PS)
	// 2      32       (n=10, mem=8192MB, VM-PS)
	// 3      16       (n=10, mem=10240MB, VM-PS)
	// 4      8        (n=10, mem=10240MB, VM-PS)
	// 5      4        (n=15, mem=10240MB, VM-PS)
	// 6      2        (n=100, mem=2048MB, ElastiCache)
	// predicted JCT 2655s, predicted cost $80.06 (feasible=true)
	//
	// executed: JCT 2553s, cost $78.30
	// winner: trial 14 with lr=0.00457 momentum=0.96 (loss 0.3845 after 12 epochs)
	// the optimum learning rate for this workload is 0.01000
	//
	// per-stage execution:
	// stage  trials   waves   wall time    cost
	// 1      64       1       680s         $36.81
	// 2      32       1       476s         $20.37
	// 3      16       1       402s         $10.79
	// 4      8        1       400s         $5.38
	// 5      4        1       308s         $3.09
	// 6      2        1       288s         $1.86
}

// QoS-driven training: train BERT-base to its target loss under a deadline,
// watching the adaptive scheduler react to online convergence predictions
// (Algorithm 2) with delayed restarts.
func Example_qosTraining() {
	w, err := workload.ByName("BERT-IMDb")
	if err != nil {
		log.Fatal(err)
	}
	fw := core.New(w)

	// Find the fastest possible run to set a realistic deadline.
	fast, err := fw.Train(core.Options{Budget: 1e15, Seed: 3}, trainer.NewRunner(3))
	if err != nil {
		log.Fatal(err)
	}
	qos := fast.Result.JCT * 2
	fmt.Printf("fastest possible run: %.0fs for $%.2f\n", fast.Result.JCT, fast.Result.TotalCost)
	fmt.Printf("deadline set to 2x that: %.0fs — now minimize cost\n\n", qos)

	// Train under the deadline with full adaptivity.
	out, err := fw.Train(core.Options{QoS: qos, Seed: 3}, trainer.NewRunner(4))
	if err != nil {
		log.Fatal(err)
	}
	r := out.Result
	fmt.Printf("adaptive run: JCT %.0fs (deadline %.0fs), cost $%.2f — %.0f%% cheaper than the fastest run\n",
		r.JCT, qos, r.TotalCost, 100*(fast.Result.TotalCost-r.TotalCost)/fast.Result.TotalCost)
	fmt.Printf("offline epoch estimate: %d; actual epochs: %d; restarts: %d; planning time: %.1fs\n\n",
		out.OfflineEstimate, r.Epochs, r.Restarts, r.PlanningTime)

	// Show the allocation timeline: every allocation the scheduler used.
	fmt.Println("allocation timeline:")
	var cur cost.Allocation
	start := 1
	for i, e := range r.Trace {
		if i == 0 {
			cur = e.Alloc
			continue
		}
		if e.Alloc != cur {
			fmt.Printf("  epochs %3d-%3d: %v\n", start, i, cur)
			cur = e.Alloc
			start = i + 1
		}
	}
	fmt.Printf("  epochs %3d-%3d: %v\n", start, len(r.Trace), cur)

	// The ablation: the same run without delayed restart pays the full
	// stop-reload-restart price on every adjustment.
	noDR, err := fw.Train(core.Options{QoS: qos, Seed: 3, DisableDelayedRestart: true}, trainer.NewRunner(4))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwithout delayed restart: overhead %.1fs vs %.1fs with it\n",
		noDR.Result.OverheadTime, r.OverheadTime)
	// Output:
	// fastest possible run: 13976s for $466.14
	// deadline set to 2x that: 27953s — now minimize cost
	//
	// adaptive run: JCT 17602s (deadline 27953s), cost $4.84 — 99% cheaper than the fastest run
	// offline epoch estimate: 25; actual epochs: 18; restarts: 4; planning time: 3.6s
	//
	// allocation timeline:
	//   epochs   1-  5: (n=5, mem=2048MB, VM-PS)
	//   epochs   6- 11: (n=5, mem=4096MB, VM-PS)
	//   epochs  12- 13: (n=5, mem=2048MB, VM-PS)
	//   epochs  14- 14: (n=5, mem=3072MB, VM-PS)
	//   epochs  15- 18: (n=5, mem=2048MB, VM-PS)
	//
	// without delayed restart: overhead 60.1s vs 45.9s with it
}

// Storage explorer: train one model under each external storage service and
// see how latency, bandwidth, pricing pattern and synchronization pattern
// shape JCT and cost (the paper's Finding 3 / Table II / Fig. 18).
func Example_storageExplorer() {
	w, err := workload.ByName("MobileNet-Cifar10")
	if err != nil {
		log.Fatal(err)
	}
	fw := core.New(w)

	fmt.Printf("model %s: %.3f MB of parameters synchronized per BSP iteration\n\n", w.Name, w.ParamsMB)
	fmt.Println("service characteristics (Table I):")
	fmt.Printf("%-12s %-8s %-8s %-15s %s\n", "service", "scaling", "latency", "pricing", "sync pattern")
	for _, kind := range storage.Kinds() {
		s := storage.New(kind)
		c := s.Characterize()
		pattern := "(2n-2) transfers"
		if s.Stateless() {
			pattern = "(3n-2) transfers"
		}
		fmt.Printf("%-12s %-8s %-8s %-15s %s\n", c.Name, c.ElasticScaling, c.LatencyClass, c.PricingPattern, pattern)
	}
	fmt.Println()

	// Fix the classic 10 functions x 1769 MB allocation and swap storages.
	fmt.Println("training to target under 10 functions x 1769MB, one storage at a time:")
	fmt.Printf("%-12s %-10s %-12s %-10s %-12s %s\n", "storage", "JCT", "sync time", "cost", "storage $", "note")
	var s3 *trainer.Result
	for _, kind := range storage.Kinds() {
		if !storage.New(kind).Supports(w.ParamsMB) {
			fmt.Printf("%-12s %-10s %-12s %-10s %-12s %s\n", kind, "N/A", "", "", "", "model exceeds object size limit")
			continue
		}
		res := new(trainer.Result)
		if err := trainer.NewRunner(11).Run(trainer.Config{
			Workload:   w,
			Engine:     w.NewEngine(workload.Hyperparams{LR: w.DefaultLR}, 11),
			Alloc:      cost.Allocation{N: 10, MemMB: 1769, Storage: kind},
			TargetLoss: w.TargetLoss,
			MaxEpochs:  500,
		}, res); err != nil {
			log.Fatal(err)
		}
		note := ""
		if kind == storage.S3 {
			s3 = res
			note = "baseline"
		} else if s3 != nil {
			note = fmt.Sprintf("JCT %.2fx, cost %.2fx of S3", res.JCT/s3.JCT, res.TotalCost/s3.TotalCost)
		}
		fmt.Printf("%-12s %-10s %-12s %-10s %-12s %s\n",
			kind,
			fmt.Sprintf("%.0fs", res.JCT),
			fmt.Sprintf("%.0fs", res.SyncTime),
			fmt.Sprintf("$%.3f", res.TotalCost),
			fmt.Sprintf("$%.4f", res.StorageCost),
			note)
	}
	fmt.Println()

	// What CE-scaling itself would pick, given freedom over all storages.
	out, err := fw.Train(core.Options{QoS: 1e15, Seed: 11}, trainer.NewRunner(12))
	if err != nil {
		log.Fatal(err)
	}
	last := out.Result.Trace[len(out.Result.Trace)-1]
	fmt.Printf("CE-scaling's own cost-minimizing pick: %v ($%.3f, %.0fs)\n",
		last.Alloc, out.Result.TotalCost, out.Result.JCT)
	// Output:
	// model MobileNet-Cifar10: 12.000 MB of parameters synchronized per BSP iteration
	//
	// service characteristics (Table I):
	// service      scaling  latency  pricing         sync pattern
	// S3           Auto     High     Data request    (3n-2) transfers
	// DynamoDB     Auto     Medium   Data request    (3n-2) transfers
	// ElastiCache  Manual   Low      Execution time  (3n-2) transfers
	// VM-PS        Manual   Low      Execution time  (2n-2) transfers
	//
	// training to target under 10 functions x 1769MB, one storage at a time:
	// storage      JCT        sync time    cost       storage $    note
	// S3           36936s     6897s        $10.794    $0.1598      baseline
	// DynamoDB     N/A                                             model exceeds object size limit
	// ElastiCache  32581s     2515s        $12.557    $3.1847      JCT 0.88x, cost 1.16x of S3
	// VM-PS        32206s     2129s        $11.037    $1.7760      JCT 0.87x, cost 1.02x of S3
	//
	// CE-scaling's own cost-minimizing pick: (n=5, mem=512MB, S3) ($9.045, 212995s)
}

// End-to-end workflow (the paper's Fig. 1): hyperparameter tuning followed
// by training the winner, under one overall budget — then the same jobs
// submitted as contending tenants on a shared account.
func Example_workflow() {
	w, err := workload.ByName("MobileNet-Cifar10")
	if err != nil {
		log.Fatal(err)
	}
	fw := core.New(w)

	// 1. One budget covers both phases; tuning reserves 60% of it.
	const budget = 600.0
	out, err := fw.RunWorkflow(core.WorkflowOptions{
		Budget: budget,
		Stages: planner.SHAStages(64, 2, 2),
		Seed:   9,
	}, trainer.NewRunner(9))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workflow for %s under a $%.0f budget:\n\n", w.Name, budget)
	fmt.Printf("phase 1 — hyperparameter tuning (64 trials, SHA):\n")
	fmt.Printf("  winner: lr=%.5f momentum=%.2f (loss %.4f)\n",
		out.BestHyperparams.LR, out.BestHyperparams.Momentum, out.Tune.Run.BestTrial.Loss)
	fmt.Printf("  spent:  %.0fs, $%.2f\n\n", out.Tune.Run.JCT, out.Tune.Run.TotalCost)

	fmt.Printf("phase 2 — training the winner to loss %.2f:\n", w.TargetLoss)
	fmt.Printf("  converged: %v in %d epochs\n", out.Train.Result.Converged, out.Train.Result.Epochs)
	fmt.Printf("  spent:     %.0fs, $%.2f\n\n", out.Train.Result.JCT, out.Train.Result.TotalCost)

	fmt.Printf("total: %.0fs, $%.2f (within budget: %v)\n\n",
		out.TotalJCT, out.TotalCost, out.WithinConstraint)

	// 2. The multi-tenant view: four such training jobs sharing one
	//    3000-function account contend for concurrency and queue.
	fmt.Println("multi-tenant: four 1500-function jobs on one account:")
	var jobs []trainer.Arrival
	for i := 0; i < 4; i++ {
		jobs = append(jobs, trainer.Arrival{
			At: float64(i) * 60,
			Config: trainer.Config{
				Workload:   w,
				Engine:     w.NewEngine(out.BestHyperparams, uint64(20+i)),
				Alloc:      cost.Allocation{N: 1500, MemMB: 1769, Storage: storage.ElastiCache},
				TargetLoss: w.TargetLoss,
				MaxEpochs:  400,
			},
		})
	}
	outs, err := trainer.NewRunner(10).RunShared(jobs)
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range outs {
		at := jobs[o.Job].At
		fmt.Printf("  tenant-%d: queued %.0fs, turnaround %.0fs, converged %v\n",
			o.Job+1, o.Admitted-at, o.Finished-at, o.Result.Converged)
	}
	// Output:
	// workflow for MobileNet-Cifar10 under a $600 budget:
	//
	// phase 1 — hyperparameter tuning (64 trials, SHA):
	//   winner: lr=0.01288 momentum=0.59 (loss 0.3240)
	//   spent:  1194s, $233.48
	//
	// phase 2 — training the winner to loss 0.20:
	//   converged: true in 29 epochs
	//   spent:     1998s, $66.53
	//
	// total: 3192s, $300.01 (within budget: true)
	//
	// multi-tenant: four 1500-function jobs on one account:
	//   tenant-2: queued 0s, turnaround 20713s, converged true
	//   tenant-1: queued 0s, turnaround 42055s, converged true
	//   tenant-3: queued 20653s, turnaround 44153s, converged true
	//   tenant-4: queued 41875s, turnaround 63072s, converged true
}
