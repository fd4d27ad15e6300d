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

	"repro/cescaling"
	"repro/internal/obs"
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

func toAllocJSON(a cescaling.Allocation) allocJSON {
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
	w, err := cescaling.ModelByName(*model)
	if err != nil {
		fatal(err)
	}
	// Output files are created before the run, so an unwritable path costs
	// nothing and prints nothing.
	traceCSV, traceF, metricsF := createOutput(*trace), createOutput(*traceOut), createOutput(*metricsOut)
	var observer *obs.Observer
	if traceF != nil || metricsF != nil {
		observer = obs.New()
	}
	fw := cescaling.New(w)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")

	switch *mode {
	case "profile":
		onFront := map[cescaling.Allocation]bool{}
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
		res, pl, err := fw.PlanHPT(*trials, *eta, *epochs, cescaling.Options{Budget: *budget, QoS: *qos, Seed: *seed, Obs: observer})
		if err != nil {
			fatal(err)
		}
		stages := cescaling.SHAStages(*trials, *eta, *epochs)
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
		_ = pl
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}

	case "train":
		off := cescaling.NewOffline(w)
		est := off.PredictEpochs(w.TargetLoss, *seed)
		// Reuse the framework's candidate selection by planning the initial
		// allocation the way the adaptive scheduler would.
		best, ok := pickInitial(fw, *budget, *qos, est)
		if !ok {
			fatal(fmt.Errorf("no feasible allocation for %s under the constraint", w.Name))
		}
		out := trainJSON{
			Model: w.Name, Constraint: constraintString(*budget, *qos),
			OfflineEpochs: est, InitialAlloc: toAllocJSON(best),
			Delta: 0.1, DelayedRestart: true, ParetoCandidates: len(fw.Pareto),
		}
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}

	case "run":
		runner := cescaling.NewRunner(*seed)
		if observer != nil {
			runner.SetObserver(observer)
		}
		out, err := fw.Train(cescaling.Options{Budget: *budget, QoS: *qos, Seed: *seed}, runner)
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
			if err := cescaling.WriteTraceCSV(traceCSV, r.Trace); err != nil {
				fatal(err)
			}
			if err := traceCSV.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "cescale: wrote %d-epoch trace to %s\n", len(r.Trace), traceCSV.Name())
		}
	}

	if err := exportObserver(observer, traceF, metricsF); err != nil {
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

// exportObserver writes the collected trace and/or metrics into the files
// opened for them (nil = not requested).
func exportObserver(o *obs.Observer, traceF, metricsF *os.File) error {
	if traceF != nil {
		if err := o.WriteTrace(traceF, traceF.Name()); err != nil {
			return err
		}
		if err := traceF.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cescale: wrote event trace to %s\n", traceF.Name())
	}
	if metricsF != nil {
		if err := o.WriteMetrics(metricsF); err != nil {
			return err
		}
		if err := metricsF.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cescale: wrote metrics to %s\n", metricsF.Name())
	}
	return nil
}

func pickInitial(fw *cescaling.Framework, budget, qos float64, est int) (cescaling.Allocation, bool) {
	bestVal := -1.0
	var best cescaling.Allocation
	found := false
	for _, p := range fw.Pareto {
		t := float64(est) * p.Time
		c := float64(est) * p.Cost
		if budget > 0 {
			if c > budget {
				continue
			}
			if !found || t < bestVal {
				bestVal, best, found = t, p.Alloc, true
			}
		} else {
			if t > qos {
				continue
			}
			if !found || c < bestVal {
				bestVal, best, found = c, p.Alloc, true
			}
		}
	}
	return best, found
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
