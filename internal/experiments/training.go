package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/scheduler"
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

// runCE runs an Algorithm 2 training session under opt (CE-scaling, or
// Siren and Cirrus* through their options), recording into scope when cfg
// carries a collector.
func runCE(cfg Config, fw *core.Framework, opt core.Options, runnerSeed uint64, scope string) (*trainer.Result, error) {
	out, err := fw.Train(opt, observed(cfg, trainer.NewRunner(runnerSeed), scope))
	if err != nil {
		return nil, err
	}
	return out.Result, nil
}

// sirenOptions is the Siren baseline [9]: CE-scaling's Algorithm 2 session
// over the unpruned grid of one storage service (S3 for Siren itself, the
// pinned service in Fig. 17), with immediate restarts and Siren's traits.
func sirenOptions(kind storage.Kind, budget, qos float64, seed uint64) core.Options {
	return core.Options{Budget: budget, QoS: qos, Seed: seed, PinStorage: &kind, DisablePareto: true, DisableDelayedRestart: true, Variant: scheduler.Siren}
}

// cirrusOptions is the modified Cirrus of §IV-C: CE-scaling's Algorithm 2
// session pinned to one storage service, with immediate restarts.
func cirrusOptions(kind storage.Kind, budget, qos float64, seed uint64) core.Options {
	return core.Options{Budget: budget, QoS: qos, Seed: seed, PinStorage: &kind, DisableDelayedRestart: true}
}

var trainOrder = []string{"CE-scaling", "Siren", "Cirrus*"}

// trainSystems runs the Fig. 12/13 system matrix for one model and returns
// the results in trainOrder order. The three systems each build their own
// scheduler and Runner over the framework, which they only read but for its
// history tree, whose answers do not depend on which session asks first; so
// they run as parallel cells merged back in system order.
// scope labels the matrix for trace collection; each system records under
// scope/<system>.
func trainSystems(cfg Config, fw *core.Framework, budget, qos float64, seed uint64, scope string) ([]*trainer.Result, error) {
	runs := []func() (*trainer.Result, error){
		func() (*trainer.Result, error) {
			return runCE(cfg, fw, core.Options{Budget: budget, QoS: qos, Seed: seed}, seed, scope+"/CE-scaling")
		},
		func() (*trainer.Result, error) {
			return runCE(cfg, fw, sirenOptions(storage.S3, budget, qos, seed), seed+1, scope+"/Siren")
		},
		func() (*trainer.Result, error) {
			return runCE(cfg, fw, cirrusOptions(storage.VMPS, budget, qos, seed), seed+2, scope+"/Cirrus")
		},
	}
	return cells(cfg, len(runs), func(i int) (*trainer.Result, error) {
		r, err := runs[i]()
		return r, cellErr(trainOrder[i], err)
	})
}

// fig12 — training JCT given a budget, with the communication breakdown.
func fig12(seed uint64, cfg Config) (*Table, error) {
	return trainConstrained(&Table{
		ID:      "fig12",
		Title:   "Training JCT given a budget (executed; comm = synchronization share of JCT)",
		Headers: []string{"model", "system", "JCT", "comm time", "comm share", "cost", "converged", "JCT vs Siren"},
		Notes:   "budget = geometric mean of cost-minimizing and JCT-minimizing CE probes; Cirrus* = Cirrus modified with online prediction (VM-PS, immediate restarts); LambdaML omitted as in the paper (offline prediction violates constraints)",
	}, seed, cfg, true)
}

// fig13 — training cost given a QoS constraint, with the storage breakdown.
func fig13(seed uint64, cfg Config) (*Table, error) {
	return trainConstrained(&Table{
		ID:      "fig13",
		Title:   "Training cost given a QoS constraint (executed; storage = storage share of cost)",
		Headers: []string{"model", "system", "cost", "storage cost", "storage share", "JCT", "QoS", "cost vs Siren"},
		Notes:   "QoS = geometric mean of the fastest and cheapest probes' JCTs",
	}, seed, cfg, false)
}

// trainConstrained fills fig12 (byBudget: each model's binding budget, JCT
// and its sync share first) or fig13 (its binding QoS, cost and its storage
// share first): one row per system and evaluated model, its objective
// against Siren's. Each model's runs record under t.ID/<model>.
func trainConstrained(t *Table, seed uint64, cfg Config, byBudget bool) (*Table, error) {
	models := workload.Evaluated()
	return cellRows(t, cfg, len(models), func(i int) ([][]string, error) {
		w := models[i]
		fw := core.New(w)
		probe, err := trainRef(fw, seed)
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", w.Name, err)
		}
		budget, qos := 0.0, 0.0
		if byBudget {
			budget = probe.budgetRef()
		} else {
			qos = probe.qosRef()
		}
		runs, err := trainSystems(cfg, fw, budget, qos, seed, t.ID+"/"+w.Name)
		if err != nil {
			return nil, cellErr(w.Name, err)
		}
		base := runs[1] // Siren
		rows := make([][]string, len(runs))
		for j, r := range runs {
			if byBudget {
				rows[j] = []string{
					w.Name, trainOrder[j], seconds(r.JCT), seconds(r.SyncTime), pct(r.SyncTime / r.JCT),
					dollars(r.TotalCost), fmt.Sprintf("%v", r.Converged),
					pct(reduction(base.JCT, r.JCT)),
				}
			} else {
				rows[j] = []string{
					w.Name, trainOrder[j], dollars(r.TotalCost), dollars(r.StorageCost), pct(r.StorageCost / r.TotalCost),
					seconds(r.JCT), seconds(qos),
					pct(reduction(base.TotalCost, r.TotalCost)),
				}
			}
		}
		return rows, nil
	})
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
	return cellRows(t, cfg, 2*len(mults), func(i int) ([][]string, error) {
		mult := mults[i%len(mults)]
		label, budget, qos := "budget", probe.budgetRef()*mult, 0.0
		if i >= len(mults) {
			label, budget, qos = "QoS", 0, probe.qosRef()*mult
		}
		runs, err := trainSystems(cfg, fw, budget, qos, seed, fmt.Sprintf("fig15/%s-%.1fx", strings.ToLower(label), mult))
		if err != nil {
			return nil, err
		}
		rows := make([][]string, len(runs))
		for j, r := range runs {
			rows[j] = []string{
				fmt.Sprintf("%s %.1fx", label, mult), trainOrder[j], seconds(r.JCT), dollars(r.TotalCost), fmt.Sprintf("%v", r.Converged),
			}
		}
		return rows, nil
	})
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
	return cellRows(t, cfg, len(kinds), func(ki int) ([][]string, error) {
		kind := kinds[ki]
		k := kind
		ce, err := runCE(cfg, fw, core.Options{Budget: budget, Seed: seed, PinStorage: &k}, seed, "fig17/"+kind.Short()+"/CE-scaling")
		if err != nil {
			return nil, err
		}
		// Siren keeps its per-epoch restart behaviour on the pinned set.
		sir, err := runCE(cfg, fw, sirenOptions(kind, budget, 0, seed), seed+4, "fig17/"+kind.Short()+"/Siren")
		if err != nil {
			return nil, err
		}
		cir, err := runCE(cfg, fw, cirrusOptions(kind, budget, 0, seed), seed+5, "fig17/"+kind.Short()+"/Cirrus")
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
	return cellRows(t, cfg, len(models), func(mi int) ([][]string, error) {
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
			if !storage.New(kind).Supports(w.ParamsMB) {
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
	return cellRows(t, cfg, len(variants), func(i int) ([][]string, error) {
		v := variants[i]
		r, err := runCE(cfg, fw, v.opt, seed, "fig21b/"+v.name)
		if err != nil {
			return nil, cellErr(v.name, err)
		}
		adjust := adjustOverhead(r)
		return [][]string{{
			v.name, fmt.Sprintf("%d", r.Restarts),
			seconds(r.PlanningTime), seconds(adjust),
			seconds(r.PlanningTime + adjust), seconds(r.JCT),
		}}, nil
	})
}

// adjustOverhead is a run's runtime-adjustment overhead (fig21b/c): its
// overhead less the initial start-up and the planning time, at least 0.
func adjustOverhead(r *trainer.Result) float64 {
	return max(r.OverheadTime-r.StartupTime-r.PlanningTime, 0)
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
	return cellRows(t, cfg, len(deltas), func(i int) ([][]string, error) {
		delta := deltas[i]
		r, err := runCE(cfg, fw, core.Options{Budget: budget, Seed: seed, Delta: delta}, seed, fmt.Sprintf("fig21c/delta-%.2f", delta))
		if err != nil {
			return nil, err
		}
		return [][]string{{
			f2(delta), fmt.Sprintf("%d", r.Restarts),
			seconds(r.PlanningTime), seconds(r.PlanningTime + adjustOverhead(r)),
			seconds(r.JCT), dollars(r.TotalCost),
		}}, nil
	})
}
