package experiments

import (
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/predictor"
	"repro/internal/storage"
	"repro/internal/trainer"
	"repro/internal/workload"
)

func init() {
	register("fig4", fig4)
	register("fig7", fig7)
	register("fig19", fig19)
	register("fig20", fig20)
	register("fig19x", fig19x)
}

// fig4 — offline vs online epoch-prediction error.
func fig4(seed uint64, cfg Config) (*Table, error) {
	w := workload.MobileNet()
	const runs = 12
	t := &Table{
		ID:      "fig4",
		Title:   "Epoch-prediction error: offline sampling (LambdaML-style) vs online curve fitting",
		Headers: []string{"predictor", "observed fraction", "mean abs error", "max abs error"},
		Notes:   fmt.Sprintf("MobileNet-Cifar10, %d independent runs; error = |predicted - actual| / actual epochs to target", runs),
	}

	type truthRun struct {
		truth int
		trace []float64
	}
	truthRuns, err := cells(cfg, runs, func(i int) (truthRun, error) {
		eng := w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, seed+uint64(i)*31)
		var trace []float64
		for e := 1; e <= 5000; e++ {
			l := eng.NextEpoch()
			trace = append(trace, l)
			if l <= w.TargetLoss {
				return truthRun{truth: e, trace: trace}, nil
			}
		}
		return truthRun{}, fmt.Errorf("fig4: run %d never converged", i)
	})
	if err != nil {
		return nil, err
	}
	truths := make([]int, runs)
	engines := make([][]float64, runs) // per-run loss traces
	for i, r := range truthRuns {
		truths[i] = r.truth
		engines[i] = r.trace
	}

	// Offline: one prediction per run, before it starts.
	var offSum, offMax float64
	off := predictor.NewOffline(w)
	for i := 0; i < runs; i++ {
		pred := off.PredictEpochs(w.TargetLoss, seed+uint64(i)*31)
		e := math.Abs(float64(pred-truths[i])) / float64(truths[i])
		offSum += e
		if e > offMax {
			offMax = e
		}
	}
	t.Rows = append(t.Rows, []string{"offline (sampling)", "0% (before start)", pct(offSum / runs), pct(offMax)})

	// Online: error after observing 25/50/75% of the true horizon.
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		var sum, max float64
		for i := 0; i < runs; i++ {
			on := predictor.NewOnline()
			upto := int(float64(truths[i]) * frac)
			if upto < predictor.MinPoints {
				upto = predictor.MinPoints
			}
			for e := 1; e <= upto && e <= len(engines[i]); e++ {
				on.Observe(e, engines[i][e-1])
			}
			var e float64 = 1
			if pred, ok := on.PredictTotalEpochs(w.TargetLoss); ok {
				e = math.Abs(float64(pred-truths[i])) / float64(truths[i])
			}
			sum += e
			if e > max {
				max = e
			}
		}
		t.Rows = append(t.Rows, []string{"online (curve fit)", pct(frac), pct(sum / runs), pct(max)})
	}
	return t, nil
}

// fig7 — the cost/JCT scatter of sampled allocations with the Pareto
// boundary, LR on Higgs.
func fig7(_ uint64, _ Config) (*Table, error) {
	w := workload.LRHiggs()
	m := cost.NewModel(w)
	all := m.Enumerate(cost.DefaultGrid())
	front := cost.Pareto(all)
	onFront := make(map[cost.Allocation]bool, len(front))
	for _, p := range front {
		onFront[p.Alloc] = true
	}

	// Sample 50 allocations deterministically: the boundary itself (up to
	// 20 points) plus a stride over the interior.
	t := &Table{
		ID:      "fig7",
		Title:   "50 sampled allocations in the (epoch time, epoch cost) plane, LR-Higgs",
		Headers: []string{"allocation", "epoch time", "epoch cost", "pareto"},
		Notes:   fmt.Sprintf("full space: %d feasible allocations, Pareto boundary: %d", len(all), len(front)),
	}
	emit := func(p cost.Point) {
		mark := ""
		if onFront[p.Alloc] {
			mark = "*"
		}
		t.Rows = append(t.Rows, []string{p.Alloc.String(), seconds(p.Time), dollars(p.Cost), mark})
	}
	nFront := len(front)
	if nFront > 20 {
		nFront = 20
	}
	for _, p := range front[:nFront] {
		emit(p)
	}
	interior := make([]cost.Point, 0, len(all))
	for _, p := range all {
		if !onFront[p.Alloc] {
			interior = append(interior, p)
		}
	}
	need := 50 - nFront
	stride := len(interior) / need
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(interior) && need > 0; i += stride {
		emit(interior[i])
		need--
	}
	return t, nil
}

// validation compares the analytic estimates with simulated ground truth
// for a sweep of allocations.
func validation(cfg Config, id, title string, w *workload.Model, allocs []cost.Allocation, seed uint64) (*Table, error) {
	m := cost.NewModel(w)
	const epochs = 5
	t := &Table{
		ID:      id,
		Title:   title,
		Headers: []string{"allocation", "est JCT", "sim JCT", "JCT err", "est cost", "sim cost", "cost err"},
		Notes:   fmt.Sprintf("%d epochs per run; simulated ground truth includes stragglers, sync noise and cold starts", epochs),
	}
	return cellRows(t, cfg, len(allocs), func(i int) ([][]string, error) {
		a := allocs[i]
		if !m.Feasible(a) {
			return [][]string{{a.String(), "infeasible", "", "", "", "", ""}}, nil
		}
		r := trainer.NewRunner(seed + uint64(a.N) + uint64(a.MemMB))
		var res trainer.Result
		if err := r.Run(trainer.Config{Workload: w, Engine: w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, seed), Alloc: a, MaxEpochs: epochs}, &res); err != nil {
			return nil, err
		}
		estT := m.JobTime(a, epochs)
		estC := m.JobCost(a, epochs)
		return [][]string{{
			a.String(),
			seconds(estT), seconds(res.JCT), pct(math.Abs(estT-res.JCT) / res.JCT),
			dollars(estC), dollars(res.TotalCost), pct(math.Abs(estC-res.TotalCost) / res.TotalCost),
		}}, nil
	})
}

// fig19 — model validation sweeping the function count.
func fig19(seed uint64, cfg Config) (*Table, error) {
	var allocs []cost.Allocation
	for _, n := range []int{10, 20, 30, 40, 50} {
		allocs = append(allocs, cost.Allocation{N: n, MemMB: 1769, Storage: storage.S3})
	}
	return validation(cfg, "fig19", "Analytical model vs simulated actuals, LR-Higgs, memory fixed at 1769MB", workload.LRHiggs(), allocs, seed)
}

// fig19x — extension: model validation across every storage service (the
// paper validates on S3 only; Eq. 3/5 also cover the other three).
func fig19x(seed uint64, cfg Config) (*Table, error) {
	var allocs []cost.Allocation
	for _, k := range storage.Kinds() {
		allocs = append(allocs,
			cost.Allocation{N: 10, MemMB: 1769, Storage: k},
			cost.Allocation{N: 50, MemMB: 1769, Storage: k},
		)
	}
	return validation(cfg, "fig19x",
		"Analytical model vs simulated actuals across storage services, MobileNet",
		workload.MobileNet(), allocs, seed)
}

// fig20 — model validation sweeping the memory size.
func fig20(seed uint64, cfg Config) (*Table, error) {
	var allocs []cost.Allocation
	for _, mem := range []int{1024, 1769, 3072, 4096, 6144} {
		allocs = append(allocs, cost.Allocation{N: 10, MemMB: mem, Storage: storage.S3})
	}
	return validation(cfg, "fig20", "Analytical model vs simulated actuals, LR-Higgs, 10 functions", workload.LRHiggs(), allocs, seed)
}
