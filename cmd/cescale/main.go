// Command cescale produces CE-scaling resource allocation plans as JSON —
// the configuration file the paper's implementation feeds to Lambda
// (§IV-A "CE-scaling outputs a configuration file in JSON").
//
// Usage:
//
//	cescale -model LR-Higgs -mode train -budget 5
//	cescale -model MobileNet-Cifar10 -mode tune -trials 512 -qos 7200
//	cescale -model BERT-IMDb -mode profile
//
// Modes:
//
//	profile  print the workload's Pareto boundary (epoch time/cost per θ)
//	tune     plan hyperparameter tuning: one allocation per SHA stage
//	train    pick the initial training allocation from the offline estimate
//	run      execute a full training job on the simulated substrate and
//	         report the measured JCT, cost and allocation timeline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/predictor"
	"repro/internal/scheduler"
	"repro/internal/trainer"
	"repro/internal/workload"
)

type allocJSON struct {
	Functions int    `json:"functions"`
	MemoryMB  int    `json:"memory_mb"`
	Storage   string `json:"storage"`
}

type pointJSON struct {
	Alloc         allocJSON `json:"allocation"`
	EpochTimeSec  float64   `json:"epoch_time_sec"`
	EpochCostUSD  float64   `json:"epoch_cost_usd"`
	ParetoOptimal bool      `json:"pareto_optimal"`
}

type stageJSON struct {
	Stage  int       `json:"stage"`
	Trials int       `json:"trials"`
	Epochs int       `json:"epochs"`
	Alloc  allocJSON `json:"allocation"`
}

type tuneJSON struct {
	Model        string      `json:"model"`
	Constraint   string      `json:"constraint"`
	Stages       []stageJSON `json:"stages"`
	PredictedJCT float64     `json:"predicted_jct_sec"`
	PredictedUSD float64     `json:"predicted_cost_usd"`
	Feasible     bool        `json:"feasible"`
}

type phaseJSON struct {
	Epochs int       `json:"epochs"`
	Alloc  allocJSON `json:"allocation"`
}

type runJSON struct {
	Model         string      `json:"model"`
	Constraint    string      `json:"constraint"`
	Converged     bool        `json:"converged"`
	Epochs        int         `json:"epochs"`
	FinalLoss     float64     `json:"final_loss"`
	JCTSec        float64     `json:"jct_sec"`
	ComputeSec    float64     `json:"compute_sec"`
	SyncSec       float64     `json:"sync_sec"`
	OverheadSec   float64     `json:"overhead_sec"`
	CostUSD       float64     `json:"cost_usd"`
	FunctionUSD   float64     `json:"function_cost_usd"`
	StorageUSD    float64     `json:"storage_cost_usd"`
	Restarts      int         `json:"restarts"`
	OfflineEpochs int         `json:"offline_epoch_estimate"`
	Timeline      []phaseJSON `json:"allocation_timeline"`
}

type trainJSON struct {
	Model            string    `json:"model"`
	Constraint       string    `json:"constraint"`
	OfflineEpochs    int       `json:"offline_epoch_estimate"`
	InitialAlloc     allocJSON `json:"initial_allocation"`
	Delta            float64   `json:"delta"`
	DelayedRestart   bool      `json:"delayed_restart"`
	ParetoCandidates int       `json:"pareto_candidates"`
}

func toAllocJSON(a cost.Allocation) allocJSON {
	return allocJSON{Functions: a.N, MemoryMB: a.MemMB, Storage: a.Storage.String()}
}

func main() {
	var (
		model  = flag.String("model", "LR-Higgs", "workload (LR-Higgs, SVM-Higgs, MobileNet-Cifar10, ResNet50-Cifar10, BERT-IMDb, LR-YFCC, SVM-YFCC)")
		mode   = flag.String("mode", "profile", "profile | tune | train | run")
		budget = flag.Float64("budget", 0, "budget constraint in USD (minimize JCT)")
		qos    = flag.Float64("qos", 0, "QoS deadline in seconds (minimize cost)")
		trials = flag.Int("trials", 512, "tuning trial population")
		eta    = flag.Int("eta", 2, "SHA reduction factor")
		epochs = flag.Int("stage-epochs", 2, "epochs per tuning stage")
		seed   = flag.Uint64("seed", 2023, "deterministic seed")
		trace  = flag.String("trace", "", "run mode: also write the per-epoch trace to this CSV file")
		// Deterministic observability (tune and run modes): event traces are
		// stamped with the simulated clock, so repeat runs with the same seed
		// produce byte-identical files. Stdout is unaffected either way.
		traceOut   = flag.String("trace-out", "", "write an event trace to this file (.jsonl = JSON lines, else Chrome trace-event JSON for Perfetto)")
		metricsOut = flag.String("metrics-out", "", "write a metrics snapshot (counters/gauges/histograms) to this JSON file")
	)
	flag.Parse()

	// Everything the selected mode would ignore or misread is rejected here,
	// before any work and before anything reaches stdout.
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q: cescale takes flags only", flag.Arg(0)))
	}
	for _, c := range []struct {
		name string
		v    float64
	}{{"-budget", *budget}, {"-qos", *qos}} {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) || c.v < 0 {
			fatal(fmt.Errorf("%s %v: want a finite value >= 0 (0 = unset)", c.name, c.v))
		}
	}
	switch *mode {
	case "profile", "tune", "train", "run":
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	// A flag set explicitly for a mode that never reads it is an error.
	// -seed is the exception: every mode accepts it, and run.golden pins
	// -seed with -mode profile.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "budget", "qos":
			if *mode == "profile" {
				fatal(fmt.Errorf("-%s: -mode profile takes no constraint", f.Name))
			}
		case "trials", "eta", "stage-epochs":
			if *mode != "tune" {
				fatal(fmt.Errorf("-%s shapes only -mode tune (got -mode %s)", f.Name, *mode))
			}
		}
	})
	switch {
	case *trace != "" && *mode != "run":
		fatal(fmt.Errorf("-trace is written only by -mode run (got -mode %s)", *mode))
	case (*traceOut != "" || *metricsOut != "") && *mode != "tune" && *mode != "run":
		fatal(fmt.Errorf("-trace-out and -metrics-out record only in -mode tune and run (got -mode %s)", *mode))
	case (*mode == "train" || *mode == "run") && (*budget > 0) == (*qos > 0):
		fatal(fmt.Errorf("%s mode needs exactly one of -budget or -qos", *mode))
	}
	if *mode == "tune" {
		// SHAStages would quietly clamp eta and plan whatever stage shape
		// it is handed (a negative epoch count yields a negative bill).
		switch {
		case *trials < 2:
			fatal(fmt.Errorf("-trials %d: successive halving needs at least 2 trials", *trials))
		case *eta < 2:
			fatal(fmt.Errorf("-eta %d: the reduction factor must be at least 2", *eta))
		case *epochs < 1:
			fatal(fmt.Errorf("-stage-epochs %d: each stage runs at least 1 epoch", *epochs))
		}
	}
	w, err := workload.ByName(*model)
	if err != nil {
		fatal(err)
	}
	// Output files are created before the run, so an unwritable path costs
	// nothing and prints nothing.
	traceCSV, traceF, metricsF := createOutput(*trace), createOutput(*traceOut), createOutput(*metricsOut)
	var collector *obs.Collector
	if traceF != nil || metricsF != nil {
		collector = obs.NewCollector()
	}
	observer := collector.Scope("cescale")
	fw := core.New(w)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")

	switch *mode {
	case "profile":
		onFront := map[cost.Allocation]bool{}
		for _, p := range fw.Pareto {
			onFront[p.Alloc] = true
		}
		out := make([]pointJSON, 0, len(fw.Full))
		for _, p := range fw.Full {
			out = append(out, pointJSON{
				Alloc: toAllocJSON(p.Alloc), EpochTimeSec: p.Time, EpochCostUSD: p.Cost,
				ParetoOptimal: onFront[p.Alloc],
			})
		}
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}

	case "tune":
		stages := planner.SHAStages(*trials, *eta, *epochs)
		res, err := fw.PlanHPT(stages, core.Options{Budget: *budget, QoS: *qos, Seed: *seed, Obs: observer})
		if err != nil {
			fatal(err)
		}
		out := tuneJSON{
			Model: w.Name, Constraint: constraintString(*budget, *qos),
			PredictedJCT: res.JCT, PredictedUSD: res.Cost, Feasible: res.Feasible,
		}
		for i, a := range res.Plan.Stages {
			out.Stages = append(out.Stages, stageJSON{
				Stage: i + 1, Trials: stages[i].Trials, Epochs: stages[i].Epochs,
				Alloc: toAllocJSON(a),
			})
		}
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}

	case "train":
		off := predictor.NewOffline(w)
		est := off.PredictEpochs(w.TargetLoss, *seed)
		// The initial allocation is Algorithm 2's selection over the
		// Pareto set, without the scheduler's fallback when nothing fits.
		best, ok := cost.Select(fw.Pareto, est, 0, 0, *budget, *qos)
		if !ok {
			fatal(fmt.Errorf("no feasible allocation for %s under the constraint", w.Name))
		}
		out := trainJSON{
			Model: w.Name, Constraint: constraintString(*budget, *qos),
			OfflineEpochs: est, InitialAlloc: toAllocJSON(fw.Pareto[best].Alloc),
			Delta: scheduler.DefaultDelta, DelayedRestart: true, ParetoCandidates: len(fw.Pareto),
		}
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}

	case "run":
		runner := trainer.NewRunner(*seed)
		if observer != nil {
			runner.SetObserver(observer)
		}
		out, err := fw.Train(core.Options{Budget: *budget, QoS: *qos, Seed: *seed}, runner)
		if err != nil {
			fatal(err)
		}
		r := out.Result
		rep := runJSON{
			Model: w.Name, Constraint: constraintString(*budget, *qos),
			Converged: r.Converged, Epochs: r.Epochs, FinalLoss: r.FinalLoss,
			JCTSec: r.JCT, ComputeSec: r.ComputeTime, SyncSec: r.SyncTime, OverheadSec: r.OverheadTime,
			CostUSD: r.TotalCost, FunctionUSD: r.FunctionCost, StorageUSD: r.StorageCost,
			Restarts: r.Restarts, OfflineEpochs: out.OfflineEstimate,
		}
		// Compress the trace into allocation phases.
		for i := 0; i < len(r.Trace); {
			j := i
			for j < len(r.Trace) && r.Trace[j].Alloc == r.Trace[i].Alloc {
				j++
			}
			rep.Timeline = append(rep.Timeline, phaseJSON{Epochs: j - i, Alloc: toAllocJSON(r.Trace[i].Alloc)})
			i = j
		}
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		if traceCSV != nil {
			if err := trainer.WriteTraceCSV(traceCSV, r.Trace); err != nil {
				fatal(err)
			}
			if err := traceCSV.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "cescale: wrote %d-epoch trace to %s\n", len(r.Trace), traceCSV.Name())
		}
	}

	if err := exportCollector(collector, traceF, metricsF); err != nil {
		fatal(err)
	}
}

// createOutput creates the output file at path; "" means not requested.
func createOutput(path string) *os.File {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	return f
}

// exportCollector writes the collected trace and/or metrics into the files
// opened for them (nil = not requested).
func exportCollector(c *obs.Collector, traceF, metricsF *os.File) error {
	scopes := c.Scopes()
	if traceF != nil {
		if err := obs.WriteTrace(traceF, traceF.Name(), scopes); err != nil {
			return err
		}
		if err := traceF.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cescale: wrote event trace to %s\n", traceF.Name())
	}
	if metricsF != nil {
		if err := obs.WriteMetricsJSON(metricsF, scopes); err != nil {
			return err
		}
		if err := metricsF.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cescale: wrote metrics to %s\n", metricsF.Name())
	}
	return nil
}

func constraintString(budget, qos float64) string {
	if budget > 0 {
		return fmt.Sprintf("budget $%.2f", budget)
	}
	return fmt.Sprintf("qos %.0fs", qos)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "cescale: %v\n", err)
	os.Exit(1)
}
