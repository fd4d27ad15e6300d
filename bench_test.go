// Benchmarks regenerating every table and figure of the paper's evaluation:
// one benchmark per artifact, each executing the full experiment on the
// simulated substrate. Run them all with
//
//	go test -bench=. -benchmem
//
// and print the regenerated tables with -v via cmd/cebench.
package repro_test

import (
	"testing"

	"repro/internal/experiments"
)

// benchSeed matches cmd/cebench's default so benchmark runs regenerate the
// same rows EXPERIMENTS.md records.
const benchSeed = 2023

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Run(id, benchSeed)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// Table I — storage service characteristics.
func BenchmarkTable1StorageCharacteristics(b *testing.B) { benchExperiment(b, "tab1") }

// Table II — storage services under a static allocation, normalized to S3.
func BenchmarkTable2StorageComparison(b *testing.B) { benchExperiment(b, "tab2") }

// Table IV — experimental configurations.
func BenchmarkTable4Configurations(b *testing.B) { benchExperiment(b, "tab4") }

// Fig. 3 — per-stage JCT when reallocating stage-1 resources.
func BenchmarkFig3Reallocation(b *testing.B) { benchExperiment(b, "fig3") }

// Fig. 4 — offline vs online epoch-prediction error.
func BenchmarkFig4PredictionError(b *testing.B) { benchExperiment(b, "fig4") }

// Fig. 7 — the cost-JCT scatter and its Pareto boundary.
func BenchmarkFig7Pareto(b *testing.B) { benchExperiment(b, "fig7") }

// Fig. 9 — hyperparameter-tuning JCT given a budget (4 systems x 5 models).
func BenchmarkFig9HPTGivenBudget(b *testing.B) { benchExperiment(b, "fig9") }

// Fig. 10 — hyperparameter-tuning cost given a QoS constraint.
func BenchmarkFig10HPTGivenQoS(b *testing.B) { benchExperiment(b, "fig10") }

// Fig. 11 — normalized per-trial budget per stage.
func BenchmarkFig11StageAllocation(b *testing.B) { benchExperiment(b, "fig11") }

// Fig. 12 — training JCT given a budget (3 systems x 5 models).
func BenchmarkFig12TrainingGivenBudget(b *testing.B) { benchExperiment(b, "fig12") }

// Fig. 13 — training cost given a QoS constraint.
func BenchmarkFig13TrainingGivenQoS(b *testing.B) { benchExperiment(b, "fig13") }

// Fig. 14 — hyperparameter tuning under varying constraints (LR-YFCC).
func BenchmarkFig14ConstraintSweepHPT(b *testing.B) { benchExperiment(b, "fig14") }

// Fig. 15 — training under varying constraints (LR-YFCC).
func BenchmarkFig15ConstraintSweepTraining(b *testing.B) { benchExperiment(b, "fig15") }

// Fig. 16 — tuning with all systems pinned to the same storage.
func BenchmarkFig16SameStorageHPT(b *testing.B) { benchExperiment(b, "fig16") }

// Fig. 17 — training with all systems pinned to the same storage.
func BenchmarkFig17SameStorageTraining(b *testing.B) { benchExperiment(b, "fig17") }

// Fig. 18 — CE-scaling under each fixed storage service.
func BenchmarkFig18FixedStorage(b *testing.B) { benchExperiment(b, "fig18") }

// Fig. 19 — analytical model validation sweeping the function count.
func BenchmarkFig19ValidationFunctions(b *testing.B) { benchExperiment(b, "fig19") }

// Fig. 20 — analytical model validation sweeping the memory size.
func BenchmarkFig20ValidationMemory(b *testing.B) { benchExperiment(b, "fig20") }

// Fig. 21(a) — planner overhead with and without Pareto pruning.
func BenchmarkFig21aPlannerOverhead(b *testing.B) { benchExperiment(b, "fig21a") }

// Fig. 21(b) — training scheduling overhead (WO-pa, WO-pa-dr ablations).
func BenchmarkFig21bSchedulerOverhead(b *testing.B) { benchExperiment(b, "fig21b") }

// Fig. 21(c) — the impact of the adjustment threshold delta.
func BenchmarkFig21cDeltaSweep(b *testing.B) { benchExperiment(b, "fig21c") }

// Ablation — greedy planner vs exact multiple-choice-knapsack optimum.
func BenchmarkAblationOptimalityGap(b *testing.B) { benchExperiment(b, "abl-gap") }

// Ablation — the end-to-end workflow of Fig. 1 (tune, then train winner).
func BenchmarkAblationWorkflow(b *testing.B) { benchExperiment(b, "abl-workflow") }

// Ablation — BSP vs asynchronous training under identical allocations.
func BenchmarkAblationASP(b *testing.B) { benchExperiment(b, "abl-asp") }

// Ablation — CE-scaling's partitioning applied to Hyperband brackets.
func BenchmarkAblationHyperband(b *testing.B) { benchExperiment(b, "abl-hyperband") }

// Fig. 2 — the Successive-Halving procedure trace.
func BenchmarkFig2SHAProcedure(b *testing.B) { benchExperiment(b, "fig2") }

// Ablation — a fifth storage service (Pocket-style) in the allocation space.
func BenchmarkAblationPocket(b *testing.B) { benchExperiment(b, "abl-pocket") }

// Ablation — failure injection and the value of per-epoch checkpointing.
func BenchmarkAblationFaults(b *testing.B) { benchExperiment(b, "abl-faults") }

// Ablation — BOHB's model-based sampling over the same brackets.
func BenchmarkAblationBOHB(b *testing.B) { benchExperiment(b, "abl-bohb") }

// Extension — model validation across every storage service.
func BenchmarkFig19xValidationStorages(b *testing.B) { benchExperiment(b, "fig19x") }

// Ablation — multi-tenant contention on one serverless account.
func BenchmarkAblationCluster(b *testing.B) { benchExperiment(b, "abl-cluster") }

// Macro — the three open-loop scenarios at their default scales, allocs/op
// reported (`go test -bench Macro`): streams on one shared account
// (macro-trace), tenants on their own capped platforms under coordinator
// shedding (macro-day) and under compiled fault schedules (macro-chaos).
func BenchmarkMacroTrace(b *testing.B) { b.ReportAllocs(); benchExperiment(b, "macro-trace") }
func BenchmarkMacroDay(b *testing.B)   { b.ReportAllocs(); benchExperiment(b, "macro-day") }
func BenchmarkMacroChaos(b *testing.B) { b.ReportAllocs(); benchExperiment(b, "macro-chaos") }
