package experiments

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestConstrainedRowsLedger grades every row of fig9, fig10, fig12 and fig13
// at seed 2023. A row meets its constraint when its unrounded cost is within
// the budget (fig9, fig12) or its JCT within the QoS (fig10, fig13); the
// values come from the helpers the tables call. The set of misses must equal
// the list below: a change that moves it edits the list and says why.
func TestConstrainedRowsLedger(t *testing.T) {
	const seed = 2023
	var cfg Config
	var misses []string
	grade := func(fig, model, system string, met bool) {
		if !met {
			misses = append(misses, fig+" "+model+" "+system)
		}
	}
	for _, w := range workload.Evaluated() {
		for _, byBudget := range []bool{true, false} {
			h, err := newHPT(w, hptTrials)
			if err != nil {
				t.Fatal(err)
			}
			fig, budget, qos := "fig9", h.budgetRef(), 0.0
			if !byBudget {
				fig, budget, qos = "fig10", 0, h.qosRef()
			}
			runs, err := h.hptSystems(cfg, budget, qos, seed)
			if err != nil {
				t.Fatal(err)
			}
			for j, r := range runs {
				grade(fig, w.Name, hptOrder[j], (byBudget && r.TotalCost <= budget) || (!byBudget && r.JCT <= qos))
			}
		}
	}
	gradeTrain(t, seed, grade)
	// fig9 has no misses. fig12 prints no budget column, so none of its
	// misses show in its table; CE-scaling overspends on LR-Higgs by 1.5 %
	// and on SVM-Higgs by 5.7 %.
	want := []string{
		"fig12 LR-Higgs CE-scaling",
		"fig12 LR-Higgs Siren",
		"fig12 MobileNet-Cifar10 Siren",
		"fig12 ResNet50-Cifar10 Siren",
		"fig12 SVM-Higgs CE-scaling",
		"fig12 SVM-Higgs Cirrus*",
		"fig12 SVM-Higgs Siren",
		"fig12 BERT-IMDb Siren",
		"fig10 MobileNet-Cifar10 Fixed",
		"fig10 ResNet50-Cifar10 CE-scaling",
		"fig10 ResNet50-Cifar10 Fixed",
		"fig10 BERT-IMDb LambdaML",
		"fig13 LR-Higgs CE-scaling",
		"fig13 LR-Higgs Siren",
		"fig13 MobileNet-Cifar10 Siren",
		"fig13 ResNet50-Cifar10 Siren",
		"fig13 SVM-Higgs CE-scaling",
		"fig13 SVM-Higgs Siren",
		"fig13 SVM-Higgs Cirrus*",
		"fig13 BERT-IMDb CE-scaling",
		"fig13 BERT-IMDb Siren",
		"fig13 BERT-IMDb Cirrus*",
	}
	slices.Sort(misses)
	slices.Sort(want)
	if !slices.Equal(misses, want) {
		t.Errorf("constraint misses at seed %d:\n got %q\nwant %q", seed, misses, want)
	}
}

// gradeTrain grades every row of fig12 and fig13 at seed, as
// TestConstrainedRowsLedger does: a row meets its constraint when its
// unrounded cost is within the budget (fig12) or its JCT within the QoS
// (fig13).
func gradeTrain(t *testing.T, seed uint64, grade func(fig, model, system string, met bool)) {
	t.Helper()
	var cfg Config
	for _, w := range workload.Evaluated() {
		for _, byBudget := range []bool{true, false} {
			fw := core.New(w)
			probe, err := trainRef(fw, seed)
			if err != nil {
				t.Fatal(err)
			}
			fig, budget, qos := "fig12", probe.budgetRef(), 0.0
			if !byBudget {
				fig, budget, qos = "fig13", 0, probe.qosRef()
			}
			runs, err := trainSystems(cfg, fw, budget, qos, seed, fig+"/"+w.Name)
			if err != nil {
				t.Fatal(err)
			}
			for j, r := range runs {
				grade(fig, w.Name, trainOrder[j], (byBudget && r.TotalCost <= budget) || (!byBudget && r.JCT <= qos))
			}
		}
	}
}

// TestConstrainedMissCounts counts, per system, the fig12 and fig13 rows
// that miss their constraint over six seeds (30 rows per system and figure).
// One seed's ledger moves with any noise draw; the counts show whether a
// change to the controller makes it meet its constraints more or less
// often. A change that moves a count edits it and says why.
func TestConstrainedMissCounts(t *testing.T) {
	got := map[string][2]int{}
	for _, seed := range []uint64{2023, 7, 11, 99, 1234, 5} {
		gradeTrain(t, seed, func(fig, _, system string, met bool) {
			if !met {
				c := got[system]
				if fig == "fig12" {
					c[0]++
				} else {
					c[1]++
				}
				got[system] = c
			}
		})
	}
	want := map[string][2]int{ // fig12 misses, fig13 misses
		"CE-scaling": {12, 15},
		"Cirrus*":    {8, 9},
		"Siren":      {22, 27},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fig12 + fig13 constraint misses over six seeds:\n got %v\nwant %v", got, want)
	}
}
