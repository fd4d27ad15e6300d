package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/predictor"
	"repro/internal/storage"
	"repro/internal/trainer"
	"repro/internal/workload"
)

func init() {
	register("fig12", fig12)
	register("fig13", fig13)
	register("fig15", fig15)
	register("fig17", fig17)
	register("fig18", fig18)
	register("fig21b", fig21b)
	register("fig21c", fig21c)
}

// trainRef probes two unconstrained CE runs to derive binding constraints:
// cheapCost (a cost-minimizing run under a loose deadline) references
// budgets, fastJCT (a JCT-minimizing run under a loose budget) references
// QoS deadlines.
type trainRefs struct {
	cheapCost, cheapJCT float64
	fastCost, fastJCT   float64
}

// budgetRef is a binding-but-workable budget: the geometric mean of the
// cheapest and fastest runs' costs.
func (r trainRefs) budgetRef() float64 { return sqrtProduct(r.cheapCost, r.fastCost) }

// qosRef is a binding-but-workable deadline: the geometric mean of the
// fastest and cheapest runs' JCTs.
func (r trainRefs) qosRef() float64 { return sqrtProduct(r.fastJCT, r.cheapJCT) }

func trainRef(fw *core.Framework, seed uint64) (trainRefs, error) {
	cheap, err := fw.Train(core.Options{QoS: 1e15, Seed: seed}, trainer.NewRunner(seed))
	if err != nil {
		return trainRefs{}, err
	}
	fast, err := fw.Train(core.Options{Budget: 1e15, Seed: seed}, trainer.NewRunner(seed))
	if err != nil {
		return trainRefs{}, err
	}
	return trainRefs{
		cheapCost: cheap.Result.TotalCost, cheapJCT: cheap.Result.JCT,
		fastCost: fast.Result.TotalCost, fastJCT: fast.Result.JCT,
	}, nil
}

// observed attaches cfg.Collector's scope named name to r when collection is
// on. Scope names are unique per cell and each cell is the sole writer of its
// scope, so the merged export is byte-identical at any parallelism.
func observed(cfg Config, r *trainer.Runner, name string) *trainer.Runner {
	if cfg.Collector != nil {
		r.SetObserver(cfg.Collector.Scope(name))
	}
	return r
}

// runCE runs CE-scaling training under opt, recording into scope when cfg
// carries a collector.
func runCE(cfg Config, fw *core.Framework, opt core.Options, runnerSeed uint64, scope string) (*trainer.Result, error) {
	out, err := fw.Train(opt, observed(cfg, trainer.NewRunner(runnerSeed), scope))
	if err != nil {
		return nil, err
	}
	return out.Result, nil
}

// runBaseline trains fw's workload to its target loss from a baseline's
// starting allocation under its controller, recording into scope. The
// engine draws from seed; each baseline's runner has its own runnerSeed,
// which like the scope name is part of the pinned output.
func runBaseline(cfg Config, fw *core.Framework, seed, runnerSeed uint64, scope string, alloc cost.Allocation, ctrl trainer.Controller) (*trainer.Result, error) {
	w := fw.Workload
	return observed(cfg, trainer.NewRunner(runnerSeed), scope).Run(trainer.Config{
		Workload:   w,
		Engine:     w.NewEngine(workload.Hyperparams{LR: w.DefaultLR}, seed),
		Alloc:      alloc,
		TargetLoss: w.TargetLoss,
		MaxEpochs:  2000,
		Controller: ctrl,
	})
}

// runSiren runs the Siren baseline for the same workload/constraint.
func runSiren(cfg Config, fw *core.Framework, budget, qos float64, seed uint64, scope string) (*trainer.Result, error) {
	w := fw.Workload
	est := predictor.NewOffline(w).PredictEpochs(w.TargetLoss, seed)
	siren := baselines.NewSirenTraining(fw.Full, budget, qos, est, seed)
	return runBaseline(cfg, fw, seed, seed+1, scope, siren.Initial(), siren.Controller())
}

// runModifiedCirrus runs the modified-Cirrus baseline (online prediction,
// VM-PS pinned, immediate restarts).
func runModifiedCirrus(cfg Config, fw *core.Framework, budget, qos float64, seed uint64, scope string) (*trainer.Result, error) {
	w := fw.Workload
	sched := baselines.ModifiedCirrus(fw.Model, fw.Full, budget, qos, w.TargetLoss, predictor.NewOffline(w), seed)
	alloc, _ := sched.Initial()
	if alloc.N == 0 {
		return nil, fmt.Errorf("modified Cirrus: no feasible VM-PS allocation for %s", w.Name)
	}
	return runBaseline(cfg, fw, seed, seed+2, scope, alloc, sched.Controller())
}

var trainOrder = []string{"CE-scaling", "Siren", "Cirrus*"}

// trainSystems runs the Fig. 12/13 system matrix for one model. The three
// systems each build their own scheduler and Runner over the read-only
// framework, so they run as parallel cells merged back in system order.
// scope labels the matrix for trace collection; each system records under
// scope/<system>.
func trainSystems(cfg Config, fw *core.Framework, budget, qos float64, seed uint64, scope string) (map[string]*trainer.Result, error) {
	runs := []struct {
		name string
		f    func() (*trainer.Result, error)
	}{
		{"CE", func() (*trainer.Result, error) {
			return runCE(cfg, fw, core.Options{Budget: budget, QoS: qos, Seed: seed}, seed, scope+"/CE-scaling")
		}},
		{"Siren", func() (*trainer.Result, error) { return runSiren(cfg, fw, budget, qos, seed, scope+"/Siren") }},
		{"Cirrus*", func() (*trainer.Result, error) { return runModifiedCirrus(cfg, fw, budget, qos, seed, scope+"/Cirrus") }},
	}
	results, err := cells(cfg, len(runs), func(i int) (*trainer.Result, error) {
		r, err := runs[i].f()
		return r, cellErr(runs[i].name, err)
	})
	if err != nil {
		return nil, err
	}
	return map[string]*trainer.Result{
		"CE-scaling": results[0], "Siren": results[1], "Cirrus*": results[2],
	}, nil
}

// fig12 — training JCT given a budget, with the communication breakdown.
func fig12(seed uint64, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "fig12",
		Title:   "Training JCT given a budget (executed; comm = synchronization share of JCT)",
		Headers: []string{"model", "system", "JCT", "comm time", "comm share", "cost", "converged", "JCT vs Siren"},
		Notes:   "budget = geometric mean of cost-minimizing and JCT-minimizing CE probes; Cirrus* = Cirrus modified with online prediction (VM-PS, immediate restarts); LambdaML omitted as in the paper (offline prediction violates constraints)",
	}
	models := workload.Evaluated()
	blocks, err := cells(cfg, len(models), func(i int) ([][]string, error) {
		w := models[i]
		fw := core.New(w)
		probe, err := trainRef(fw, seed)
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", w.Name, err)
		}
		budget := probe.budgetRef()
		runs, err := trainSystems(cfg, fw, budget, 0, seed, "fig12/"+w.Name)
		if err != nil {
			return nil, cellErr(w.Name, err)
		}
		base := runs["Siren"].JCT
		var rows [][]string
		for _, sys := range trainOrder {
			r := runs[sys]
			rows = append(rows, []string{
				w.Name, sys, seconds(r.JCT), seconds(r.SyncTime), pct(r.SyncTime / r.JCT),
				dollars(r.TotalCost), fmt.Sprintf("%v", r.Converged),
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

// fig13 — training cost given a QoS constraint, with the storage breakdown.
func fig13(seed uint64, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "fig13",
		Title:   "Training cost given a QoS constraint (executed; storage = storage share of cost)",
		Headers: []string{"model", "system", "cost", "storage cost", "storage share", "JCT", "QoS", "cost vs Siren"},
		Notes:   "QoS = geometric mean of the fastest and cheapest probes' JCTs",
	}
	models := workload.Evaluated()
	blocks, err := cells(cfg, len(models), func(i int) ([][]string, error) {
		w := models[i]
		fw := core.New(w)
		probe, err := trainRef(fw, seed)
		if err != nil {
			return nil, err
		}
		qos := probe.qosRef()
		runs, err := trainSystems(cfg, fw, 0, qos, seed, "fig13/"+w.Name)
		if err != nil {
			return nil, cellErr(w.Name, err)
		}
		base := runs["Siren"].TotalCost
		var rows [][]string
		for _, sys := range trainOrder {
			r := runs[sys]
			rows = append(rows, []string{
				w.Name, sys, dollars(r.TotalCost), dollars(r.StorageCost), pct(r.StorageCost / r.TotalCost),
				seconds(r.JCT), seconds(qos),
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

// fig15 — training for LR-YFCC under varying budget and QoS constraints.
func fig15(seed uint64, cfg Config) (*Table, error) {
	w := workload.LRYFCC()
	fw := core.New(w)
	probe, err := trainRef(fw, seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig15",
		Title:   "Training under varying constraints, LR-YFCC (executed)",
		Headers: []string{"constraint", "system", "JCT", "cost", "converged"},
		Notes:   "multiples of the geometric-mean reference constraints",
	}
	// Four budget cells, then four QoS cells, at the same multiples.
	mults := []float64{0.6, 0.8, 1.0, 1.4}
	blocks, err := cells(cfg, 2*len(mults), func(i int) ([][]string, error) {
		mult := mults[i%len(mults)]
		label, budget, qos := "budget", probe.budgetRef()*mult, 0.0
		if i >= len(mults) {
			label, budget, qos = "QoS", 0, probe.qosRef()*mult
		}
		runs, err := trainSystems(cfg, fw, budget, qos, seed, fmt.Sprintf("fig15/%s-%.1fx", strings.ToLower(label), mult))
		if err != nil {
			return nil, err
		}
		var rows [][]string
		for _, sys := range trainOrder {
			r := runs[sys]
			rows = append(rows, []string{
				fmt.Sprintf("%s %.1fx", label, mult), sys, seconds(r.JCT), dollars(r.TotalCost), fmt.Sprintf("%v", r.Converged),
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

// fig17 — training with every system pinned to the same storage
// (MobileNet-Cifar10).
func fig17(seed uint64, cfg Config) (*Table, error) {
	w := workload.MobileNet()
	fw := core.New(w)
	probe, err := trainRef(fw, seed)
	if err != nil {
		return nil, err
	}
	budget := probe.budgetRef()
	t := &Table{
		ID:      "fig17",
		Title:   "Training with all systems pinned to the same storage, MobileNet-Cifar10 (executed)",
		Headers: []string{"storage", "system", "JCT", "comm time", "cost", "storage cost"},
		Notes:   "budget = 1.3x a cost-minimizing CE probe",
	}
	kinds := []storage.Kind{storage.S3, storage.VMPS}
	blocks, err := cells(cfg, len(kinds), func(ki int) ([][]string, error) {
		kind := kinds[ki]
		k := kind
		ce, err := runCE(cfg, fw, core.Options{Budget: budget, Seed: seed, PinStorage: &k}, seed, "fig17/"+kind.Short()+"/CE-scaling")
		if err != nil {
			return nil, err
		}
		// Siren keeps its per-epoch restart behaviour on the pinned set.
		sirEst := predictor.NewOffline(w).PredictEpochs(w.TargetLoss, seed)
		sir, err := runSirenPinned(cfg, fw, baselines.FilterByStorage(fw.Full, kind), budget, sirEst, seed, "fig17/"+kind.Short()+"/Siren")
		if err != nil {
			return nil, err
		}
		// Cirrus: online prediction, immediate restarts, pinned storage.
		cirSched := baselines.ModifiedCirrusPinned(fw.Model, fw.Full, kind, budget, 0, w.TargetLoss, predictor.NewOffline(w), seed)
		cirAlloc, _ := cirSched.Initial()
		cir, err := runBaseline(cfg, fw, seed, seed+5, "fig17/"+kind.Short()+"/Cirrus", cirAlloc, cirSched.Controller())
		if err != nil {
			return nil, err
		}
		systems := []struct {
			name string
			r    *trainer.Result
		}{{"CE-scaling", ce}, {"Siren", sir}, {"Cirrus", cir}}
		var rows [][]string
		for _, row := range systems {
			rows = append(rows, []string{
				kind.String(), row.name, seconds(row.r.JCT), seconds(row.r.SyncTime),
				dollars(row.r.TotalCost), dollars(row.r.StorageCost),
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

// runSirenPinned reproduces Siren's per-epoch adjustment behaviour over an
// arbitrary pinned candidate set (used when Fig. 17 pins Siren to VM-PS).
func runSirenPinned(cfg Config, fw *core.Framework, pts []cost.Point, budget float64, est int, seed uint64, scope string) (*trainer.Result, error) {
	siren := baselines.NewSirenTrainingUnfiltered(pts, budget, 0, est, seed)
	return runBaseline(cfg, fw, seed, seed+4, scope, siren.Initial(), siren.Controller())
}

// fig18 — CE-scaling restricted to one storage service at a time.
func fig18(seed uint64, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "fig18",
		Title:   "CE-scaling training under fixed external storage (D/S/E/V)",
		Headers: []string{"model", "storage", "JCT", "comm time", "cost", "storage cost"},
		Notes:   "N/A: model exceeds DynamoDB's 400KB object limit; budget = 1.3x a cost-minimizing probe",
	}
	models := []*workload.Model{workload.LRHiggs(), workload.MobileNet()}
	blocks, err := cells(cfg, len(models), func(mi int) ([][]string, error) {
		w := models[mi]
		fw := core.New(w)
		probe, err := trainRef(fw, seed)
		if err != nil {
			return nil, err
		}
		budget := probe.budgetRef()
		kinds := storage.Kinds()
		return cells(cfg, len(kinds), func(ki int) ([]string, error) {
			kind := kinds[ki]
			k := kind
			if !fw.Model.Service(kind).Supports(w.ParamsMB) {
				return []string{w.Name, kind.Short(), "N/A", "N/A", "N/A", "N/A"}, nil
			}
			r, err := runCE(cfg, fw, core.Options{Budget: budget, Seed: seed, PinStorage: &k}, seed+uint64(kind), "fig18/"+w.Name+"/"+kind.Short())
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", w.Name, kind, err)
			}
			return []string{
				w.Name, kind.Short(), seconds(r.JCT), seconds(r.SyncTime),
				dollars(r.TotalCost), dollars(r.StorageCost),
			}, nil
		})
	})
	if err != nil {
		return nil, err
	}
	for _, rows := range blocks {
		t.Rows = append(t.Rows, rows...)
	}
	return t, nil
}

// fig21b — training scheduling overhead: CE vs WO-pa vs WO-pa-dr.
func fig21b(seed uint64, cfg Config) (*Table, error) {
	w := workload.ResNet50()
	fw := core.New(w)
	probe, err := trainRef(fw, seed)
	if err != nil {
		return nil, err
	}
	budget := probe.budgetRef() * 0.8 // binding, so adjustments happen
	t := &Table{
		ID:      "fig21b",
		Title:   "Training scheduling overhead (planning + adjustment), ResNet50",
		Headers: []string{"variant", "restarts", "planning time", "adjust overhead", "total sched overhead", "JCT"},
		Notes:   "WO-pa searches the full allocation set; WO-pa-dr additionally disables delayed restart; adjust overhead = overhead - initial startup - planning",
	}
	variants := []struct {
		name string
		opt  core.Options
	}{
		{"CE-scaling", core.Options{Budget: budget, Seed: seed}},
		{"WO-pa", core.Options{Budget: budget, Seed: seed, DisablePareto: true}},
		{"WO-pa-dr", core.Options{Budget: budget, Seed: seed, DisablePareto: true, DisableDelayedRestart: true}},
	}
	rows, err := cells(cfg, len(variants), func(i int) ([]string, error) {
		v := variants[i]
		r, err := runCE(cfg, fw, v.opt, seed, "fig21b/"+v.name)
		if err != nil {
			return nil, cellErr(v.name, err)
		}
		adjust := r.OverheadTime - r.StartupTime - r.PlanningTime
		if adjust < 0 {
			adjust = 0
		}
		return []string{
			v.name, fmt.Sprintf("%d", r.Restarts),
			seconds(r.PlanningTime), seconds(adjust),
			seconds(r.PlanningTime + adjust), seconds(r.JCT),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	return t, nil
}

// fig21c — the impact of the adjustment threshold δ.
func fig21c(seed uint64, cfg Config) (*Table, error) {
	w := workload.ResNet50()
	fw := core.New(w)
	probe, err := trainRef(fw, seed)
	if err != nil {
		return nil, err
	}
	budget := probe.budgetRef() * 0.8
	t := &Table{
		ID:      "fig21c",
		Title:   "Impact of the adjustment threshold δ (ResNet50, budget-constrained)",
		Headers: []string{"delta", "restarts", "planning time", "sched overhead", "JCT", "cost"},
		Notes:   "lower δ reacts to every prediction wobble (frequent restarts); higher δ responds slowly; default 0.1",
	}
	deltas := []float64{0.01, 0.05, 0.1, 0.15, 0.2}
	rows, err := cells(cfg, len(deltas), func(i int) ([]string, error) {
		delta := deltas[i]
		r, err := runCE(cfg, fw, core.Options{Budget: budget, Seed: seed, Delta: delta}, seed, fmt.Sprintf("fig21c/delta-%.2f", delta))
		if err != nil {
			return nil, err
		}
		adjust := r.OverheadTime - r.StartupTime - r.PlanningTime
		if adjust < 0 {
			adjust = 0
		}
		return []string{
			f2(delta), fmt.Sprintf("%d", r.Restarts),
			seconds(r.PlanningTime), seconds(r.PlanningTime + adjust),
			seconds(r.JCT), dollars(r.TotalCost),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	return t, nil
}
