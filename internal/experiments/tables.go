package experiments

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/storage"
	"repro/internal/trainer"
	"repro/internal/workload"
)

func init() {
	register("tab1", tab1)
	register("tab2", tab2)
	register("tab4", tab4)
}

// tab1 — characteristics of the external storage services.
func tab1(_ uint64, _ Config) (*Table, error) {
	t := &Table{
		ID:      "tab1",
		Title:   "Comparison of external storage services",
		Headers: []string{"service", "elastic scaling", "latency", "pricing pattern", "cost"},
	}
	for _, s := range storage.All() {
		c := s.Characterize()
		t.Rows = append(t.Rows, []string{c.Name, c.ElasticScaling, c.LatencyClass, c.PricingPattern, c.CostClass})
	}
	return t, nil
}

// tab2 — JCT and cost of Cirrus-style static training under each storage
// service, normalized to S3, for LR-Higgs and MobileNet at 10 and 50
// functions with 1769 MB.
func tab2(seed uint64, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "tab2",
		Title:   "Storage services under a static allocation (normalized to S3; <1 beats S3)",
		Headers: []string{"allocation", "model", "storage", "JCT/S3", "cost/S3"},
		Notes:   "5 epochs per run; N/A: model exceeds DynamoDB's 400KB object limit",
	}
	models := []*workload.Model{workload.LRHiggs(), workload.MobileNet()}
	const epochs = 5
	ns := []int{10, 50}
	// Each (n, model) block is independent: flatten to cells, each running
	// its four storage services.
	return cellRows(t, cfg, len(ns)*len(models), func(bi int) ([][]string, error) {
		n := ns[bi/len(models)]
		w := models[bi%len(models)]
		base := map[storage.Kind]*trainer.Result{}
		for _, kind := range storage.Kinds() {
			a := cost.Allocation{N: n, MemMB: 1769, Storage: kind}
			m := cost.NewModel(w)
			if !m.Feasible(a) {
				continue
			}
			r := trainer.NewRunner(seed + uint64(n) + uint64(kind)*13)
			res := new(trainer.Result)
			if err := r.Run(trainer.Config{Workload: w, Engine: w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, seed), Alloc: a, MaxEpochs: epochs}, res); err != nil {
				return nil, err
			}
			base[kind] = res
		}
		s3 := base[storage.S3]
		if s3 == nil {
			return nil, fmt.Errorf("tab2: no S3 baseline for %s n=%d", w.Name, n)
		}
		var rows [][]string
		for _, kind := range storage.Kinds() {
			label := fmt.Sprintf("%d functions/1769MB", n)
			res := base[kind]
			if res == nil {
				rows = append(rows, []string{label, w.Name, kind.String(), "N/A", "N/A"})
				continue
			}
			rows = append(rows, []string{
				label, w.Name, kind.String(),
				f2(res.JCT / s3.JCT), f2(res.TotalCost / s3.TotalCost),
			})
		}
		return rows, nil
	})
}

// tab4 — the experimental configurations (inputs, echoed for completeness).
func tab4(_ uint64, _ Config) (*Table, error) {
	t := &Table{
		ID:      "tab4",
		Title:   "Experimental configurations of the evaluated models",
		Headers: []string{"model", "dataset", "batch size", "learning rate", "target loss", "model size (MB)"},
	}
	for _, w := range append(workload.Evaluated(), workload.LRYFCC()) {
		t.Rows = append(t.Rows, []string{
			w.Name, w.Dataset.Name,
			fmt.Sprintf("%d", w.Batch),
			fmt.Sprintf("%g", w.DefaultLR),
			fmt.Sprintf("%g", w.TargetLoss),
			fmt.Sprintf("%g", w.ParamsMB),
		})
	}
	return t, nil
}
