// Package cescaling is the public API of the CE-scaling reproduction: a
// QoS-aware, cost-efficient dynamic resource allocator for serverless ML
// workflows (Wu et al., IPDPS 2023) together with the simulated serverless
// substrate it runs on.
//
// The typical flow mirrors the paper's Fig. 6 architecture:
//
//	w, _ := cescaling.ModelByName("MobileNet-Cifar10")
//	fw := cescaling.New(w)                  // Pareto profiler
//	runner := cescaling.NewRunner(42)       // simulated substrate
//
//	// Hyperparameter tuning under a budget (greedy heuristic planner):
//	tune, _ := fw.RunHPT(512, 2, 2, cescaling.Options{Budget: 30}, runner)
//
//	// Model training under a QoS deadline (adaptive scheduler):
//	train, _ := fw.Train(cescaling.Options{QoS: 3600}, runner)
//
// Everything is deterministic per seed: repeated runs reproduce identical
// JCT and cost figures.
package cescaling

import (
	"io"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/planner"
	"repro/internal/predictor"
	"repro/internal/sha"
	"repro/internal/storage"
	"repro/internal/trainer"
	"repro/internal/workload"
)

// Core types, re-exported so users never import internal packages.
type (
	// Framework is one CE-scaling instance bound to a workload: Pareto
	// profiler + greedy heuristic planner + adaptive scheduler.
	Framework = core.Framework
	// Options selects the constraint (Budget or QoS) and toggles the
	// Pareto and delayed-restart optimizations.
	Options = core.Options
	// TuneOutcome carries a tuning plan and its measured execution.
	TuneOutcome = core.TuneOutcome
	// TrainOutcome carries a training run and the scheduler that drove it.
	TrainOutcome = core.TrainOutcome
	// WorkflowOptions parameterize an end-to-end workflow (tune + train).
	WorkflowOptions = core.WorkflowOptions
	// WorkflowOutcome reports both phases of an executed workflow.
	WorkflowOutcome = core.WorkflowOutcome

	// Model profiles one ML workload (sizes, compute intensity, loss
	// engine, Table IV configuration).
	Model = workload.Model
	// Hyperparams are the tunables a tuning trial explores.
	Hyperparams = workload.Hyperparams
	// Engine produces per-epoch training losses.
	Engine = workload.Engine

	// Allocation is one point θ = (n, m, s) of the allocation space.
	Allocation = cost.Allocation
	// Point pairs an allocation with its per-epoch time and cost estimates.
	Point = cost.Point
	// Grid is the allocation space to enumerate.
	Grid = cost.Grid
	// CostModel estimates per-epoch and per-job time and cost (Eq. 1-5).
	CostModel = cost.Model

	// Stage is one SHA stage (trials, epochs).
	Stage = planner.Stage
	// Plan assigns an allocation to every tuning stage.
	Plan = planner.Plan
	// PlanResult is a plan with its predicted JCT/cost.
	PlanResult = planner.Result
	// Planner is the greedy heuristic resource-partitioning planner.
	Planner = planner.Planner

	// Runner is the simulated serverless substrate jobs execute on.
	Runner = trainer.Runner
	// TrainJob describes one training job for Runner.Run (allocation,
	// engine, target, optional controller).
	TrainJob = trainer.Config
	// TrainResult summarizes one executed training job.
	TrainResult = trainer.Result
	// TrainController observes epochs and may adjust resources.
	TrainController = trainer.Controller
	// TrainDecision is what a controller may request at an epoch boundary.
	TrainDecision = trainer.Decision
	// TuneRun summarizes one executed tuning workflow.
	TuneRun = sha.Result

	// StorageKind identifies an external storage service.
	StorageKind = storage.Kind

	// ClusterSubmission is one job plus its arrival time on a shared
	// substrate.
	ClusterSubmission = cluster.Submission
	// ClusterOutcome reports one completed multi-tenant job.
	ClusterOutcome = cluster.Outcome
	// StorageService models one external storage service.
	StorageService = storage.Service

	// OfflinePredictor is the LambdaML-style sampling predictor.
	OfflinePredictor = predictor.Offline
	// OnlinePredictor is the convergence-curve fitter.
	OnlinePredictor = predictor.Online
)

// Storage service kinds (Table I).
const (
	S3          = storage.S3
	DynamoDB    = storage.DynamoDB
	ElastiCache = storage.ElastiCache
	VMPS        = storage.VMPS
)

// New profiles a workload over the default allocation grid and returns a
// CE-scaling framework for it.
func New(w *Model) *Framework { return core.New(w) }

// NewWithGrid profiles a workload over an explicit grid.
func NewWithGrid(w *Model, g Grid) *Framework { return core.NewWithGrid(w, g) }

// NewRunner returns a deterministic simulated substrate.
func NewRunner(seed uint64) *Runner { return trainer.NewRunner(seed) }

// DefaultGrid returns the allocation grid used by the paper's evaluation.
func DefaultGrid() Grid { return cost.DefaultGrid() }

// Models returns the five evaluated workloads (LR, SVM, MobileNet,
// ResNet50, BERT).
func Models() []*Model { return workload.Evaluated() }

// ModelByName resolves a workload profile ("LR-Higgs", "BERT-IMDb", ...).
func ModelByName(name string) (*Model, error) { return workload.ByName(name) }

// SHAStages builds the successive-halving stage structure.
func SHAStages(trials, eta, epochsPerStage int) []Stage {
	return planner.SHAStages(trials, eta, epochsPerStage)
}

// Pareto returns the Pareto boundary of a set of allocation points.
func Pareto(points []Point) []Point { return cost.Pareto(points) }

// NewOffline returns the sampling-based offline epoch predictor.
func NewOffline(w *Model) *OfflinePredictor { return predictor.NewOffline(w) }

// NewOnline returns the online convergence-curve predictor.
func NewOnline() *OnlinePredictor { return predictor.NewOnline() }

// RunCluster executes multiple fixed-allocation jobs on one shared
// substrate: they contend for the account concurrency cap and queue FIFO.
func RunCluster(r *Runner, subs []ClusterSubmission) ([]*ClusterOutcome, error) {
	return cluster.Run(r, subs)
}

// WriteTraceCSV writes a training run's per-epoch trace as CSV.
func WriteTraceCSV(w io.Writer, trace []trainer.EpochReport) error {
	return trainer.WriteTraceCSV(w, trace)
}

// StorageServices returns the four modeled storage services.
func StorageServices() []*StorageService {
	return storage.All(trainer.NewRunner(0).Prices)
}

// Baseline planners and policies (§IV): LambdaML, Siren and Cirrus over the
// same substrate.
var Baselines = struct {
	LambdaMLPlan func(m *CostModel, stages []Stage, points []Point, budget, qos float64) (PlanResult, error)
	SirenPlan    func(m *CostModel, stages []Stage, points []Point, budget, qos float64) (PlanResult, error)
	CirrusPlan   func(m *CostModel, stages []Stage, points []Point, budget, qos float64) (PlanResult, error)
}{
	LambdaMLPlan: baselines.LambdaMLPlan,
	SirenPlan:    baselines.SirenPlan,
	CirrusPlan:   baselines.CirrusPlan,
}
