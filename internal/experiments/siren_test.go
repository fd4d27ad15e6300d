package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/trainer"
	"repro/internal/workload"
)

// Siren's training side is core's Algorithm 2 session under sirenOptions.

func TestSirenTrainingRestartsOften(t *testing.T) {
	fw := core.New(workload.MobileNet())
	out, err := fw.Train(sirenOptions(storage.S3, 1e9, 0, 3), trainer.NewRunner(4))
	if err != nil {
		t.Fatal(err)
	}
	res := out.Result
	if !res.Converged {
		t.Fatalf("Siren run did not converge (loss %g)", res.FinalLoss)
	}
	// Exploration at every epoch: expect restarts on a large fraction of
	// epochs.
	if res.Restarts < res.Epochs/4 {
		t.Errorf("Siren restarted %d times over %d epochs; per-epoch adjustment missing", res.Restarts, res.Epochs)
	}
	for _, e := range res.Trace {
		if e.Alloc.Storage != storage.S3 {
			t.Fatalf("epoch %d ran on %v, want S3", e.Epoch, e.Alloc.Storage)
		}
	}
}

func TestSirenRespectsBudgetStop(t *testing.T) {
	const budget = 0.5
	fw := core.New(workload.BERT())
	out, err := fw.Train(sirenOptions(storage.S3, budget, 0, 3), trainer.NewRunner(5))
	if err != nil {
		t.Fatal(err)
	}
	if res := out.Result; res.Converged || res.TotalCost < budget {
		t.Errorf("Siren should stop when the budget is exhausted: converged=%v cost %g of %g over %d epochs",
			res.Converged, res.TotalCost, budget, res.Epochs)
	}
}

// TestSirenDecisionsLogged: Siren's scope of a fig12 cell carries one
// scheduler decision per epoch the trainer asked it to decide (every epoch
// but a converged run's last).
func TestSirenDecisionsLogged(t *testing.T) {
	const seed = 7
	cfg := Config{Parallel: 1, Collector: obs.NewCollector()}
	fw := core.New(workload.MobileNet())
	runs, err := trainSystems(cfg, fw, 12, 0, seed, "fig12/"+fw.Workload.Name)
	if err != nil {
		t.Fatal(err)
	}
	r := runs[1] // Siren
	decided := r.Epochs
	if r.Converged {
		decided--
	}
	got := cfg.Collector.Scope("fig12/" + fw.Workload.Name + "/Siren").Stats().Counter("scheduler.decisions")
	if decided == 0 || got != float64(decided) {
		t.Errorf("Siren scope logged %g scheduler decisions, want %d (%d epochs, converged %v)", got, decided, r.Epochs, r.Converged)
	}
}
