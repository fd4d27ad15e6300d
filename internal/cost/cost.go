// Package cost implements the paper's analytical models (§III-B): the
// execution time (Eq. 2-3) and monetary cost (Eq. 4-5) of one epoch of a
// serverless ML workflow under a resource allocation θ = (n, m, s), the
// enumeration of the allocation space Θ (Eq. 1), and the Pareto boundary of
// the cost-JCT plane used to prune bad allocations (Fig. 7).
package cost

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/faas"
	"repro/internal/pricing"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Allocation is one point θ = (n, m, s) of the allocation space.
type Allocation struct {
	N       int          // number of functions
	MemMB   int          // function memory size
	Storage storage.Kind // external storage service
}

func (a Allocation) String() string {
	return fmt.Sprintf("(n=%d, mem=%dMB, %s)", a.N, a.MemMB, a.Storage)
}

// Model is the analytic estimator for one workload. It is what the
// scheduler *believes*; the simulator in internal/trainer is the ground
// truth the estimates are validated against (Fig. 19-20).
//
// Per-allocation epoch estimates and per-grid Pareto sets are cached: the
// adaptive scheduler (Algorithm 2) re-derives them on every δ-triggered
// recompute. The planner probes each (stage, allocation) once, into its own
// plan evaluation table; per-call probes remain in the planner's exported
// JCT/Cost/StageTime for arbitrary plans (the baselines, fig11's per-stage
// shares) and in JobTime/JobCost (fig19/20 validation). Grid allocations
// live in a dense per-grid table (one map probe + slice index per lookup),
// which the first Enumerate/ParetoSet/ParetoFrontier call takes from the
// process-wide intern, where models of equal configuration share it; an
// off-grid allocation is simply computed (~150 ns). The tables are safe
// for concurrent readers. Prices, the account limits, the straggler noise,
// the cold start and B_S3 are the simulated cloud's one calibration:
// pricing's list prices, faas.MaxConcurrency and the memory bounds,
// faas.StragglerSigma, faas.ColdStartEstimate and storage.LoadMBps.
type Model struct {
	Workload *workload.Model

	mu     sync.Mutex   // guards table builds
	tables atomic.Value // []*gridTable, copy-on-write append
}

// epochEstimates returns θ's per-epoch (t'(θ), c'(θ)) as a Point: from the
// dense table when θ is a point of an already-built grid, computed otherwise.
// Time and cost come together because every consumer of one is about to ask
// for the other (the cost depends on the epoch time for runtime-charged
// storage).
func (m *Model) epochEstimates(a Allocation) Point {
	if ts, _ := m.tables.Load().([]*gridTable); ts != nil {
		for _, t := range ts {
			if idx, ok := t.index[a]; ok {
				return t.points[idx]
			}
		}
	}
	return m.computePoint(a)
}

// computePoint evaluates (t'(θ), c'(θ)) from scratch.
func (m *Model) computePoint(a Allocation) Point {
	t := m.ComputeTime(a) + m.SyncTime(a)
	return Point{Alloc: a, Time: t, Cost: m.functionEpochCost(a, t) + m.storageEpochCost(a, t)}
}

// NewModel returns an analytic model for w.
func NewModel(w *workload.Model) *Model {
	return &Model{Workload: w}
}

// Feasible reports whether θ can run the workload at all: the function
// memory must be allocatable and hold the data partition, the storage must
// accept the model size, and the function count must fit the concurrency
// cap.
func (m *Model) Feasible(a Allocation) bool {
	if a.N < 1 || a.N > faas.MaxConcurrency {
		return false
	}
	if faas.ValidateMemory(a.MemMB) != nil {
		return false
	}
	if !m.Workload.Feasible(a.N, a.MemMB) {
		return false
	}
	return storage.New(a.Storage).Supports(m.Workload.ParamsMB)
}

// Iterations returns k = D/(n*b_z), the BSP iterations per epoch.
func (m *Model) Iterations(a Allocation) int {
	return m.Workload.IterationsPerEpoch(a.N)
}

// LoadTime returns t^l: the time for each function to load its data
// partition from object storage (Eq. 2 first term, D/(n*B_S3)).
func (m *Model) LoadTime(a Allocation) float64 {
	return m.Workload.Dataset.PartitionSizeMB(a.N) / storage.LoadMBps
}

// ComputeTime returns the per-epoch gradient computation time: each
// function processes its D/n partition once per epoch at u(m) seconds/MB,
// inflated by the expected BSP straggler penalty (the barrier waits for the
// slowest of n functions).
func (m *Model) ComputeTime(a Allocation) float64 {
	base := m.Workload.Dataset.PartitionSizeMB(a.N) * m.Workload.U(a.MemMB)
	return base * stragglerFactor(a.N)
}

// stragglerFactor approximates E[max of n lognormal(0, sigma)] as
// exp(sigma * sqrt(2 ln n)), with sigma the faas.StragglerSigma the trainer
// draws with: the epoch waits for the slowest of n functions, so expected
// compute time inflates with n.
func stragglerFactor(n int) float64 {
	if n <= 1 {
		return 1
	}
	return math.Exp(faas.StragglerSigma * math.Sqrt(2*math.Log(float64(n))))
}

// SyncTime returns the per-epoch parameter synchronization time:
// k * t^p(θ) with t^p from Eq. 3.
func (m *Model) SyncTime(a Allocation) float64 {
	svc := storage.New(a.Storage)
	return float64(m.Iterations(a)) * svc.SyncTime(a.N, m.Workload.ParamsMB)
}

// EpochTime returns t'(θ) for a steady-state epoch (compute + sync; the
// one-time load and startup are accounted by JobTime).
func (m *Model) EpochTime(a Allocation) float64 {
	return m.epochEstimates(a).Time
}

// FunctionEpochCost returns the per-epoch compute bill: n functions each
// running the epoch duration at p_f(m) (Eq. 4 second term).
func (m *Model) FunctionEpochCost(a Allocation) float64 {
	return m.functionEpochCost(a, m.EpochTime(a))
}

func (m *Model) functionEpochCost(a Allocation, epochTime float64) float64 {
	return float64(a.N) * pricing.ComputeOnlyCost(epochTime, float64(a.MemMB))
}

// StorageEpochCost returns c^s per epoch (Eq. 5): request charges for the
// k synchronizations (request-charged services) or the epoch's runtime
// share (runtime-charged services).
func (m *Model) StorageEpochCost(a Allocation) float64 {
	return m.storageEpochCost(a, m.EpochTime(a))
}

func (m *Model) storageEpochCost(a Allocation, epochTime float64) float64 {
	svc := storage.New(a.Storage)
	if svc.ChargeModel() == storage.ByRequest {
		return float64(m.Iterations(a)) * svc.SyncRequestCost(a.N, m.Workload.ParamsMB)
	}
	return svc.RuntimeCost(epochTime)
}

// EpochCost returns c'(θ): the full per-epoch bill.
func (m *Model) EpochCost(a Allocation) float64 {
	return m.epochEstimates(a).Cost
}

// InvocationCost returns the one-time n*p_ivk charge for invoking the
// function group (Eq. 4 first term), paid at start and on every restart.
func (m *Model) InvocationCost(a Allocation) float64 {
	return float64(a.N) * pricing.FunctionInvoke
}

// JobTime estimates the JCT of a training job of epochs epochs under one
// fixed allocation: startup + provisioning + load + epochs * epoch time.
func (m *Model) JobTime(a Allocation, epochs int) float64 {
	start := m.StartupEstimate(a)
	return start + m.LoadTime(a) + float64(epochs)*m.EpochTime(a)
}

// StartupEstimate returns the deterministic startup latency of a fresh
// function group under θ: the cold start (or the storage provisioning
// delay when that dominates).
func (m *Model) StartupEstimate(a Allocation) float64 {
	t := faas.ColdStartEstimate(a.MemMB)
	if p := storage.New(a.Storage).ProvisionDelay(); p > t {
		t = p // storage provisioning overlaps function cold start
	}
	return t
}

// JobCost estimates the total bill of a training job of epochs epochs under
// one fixed allocation.
func (m *Model) JobCost(a Allocation, epochs int) float64 {
	c := m.InvocationCost(a) + storage.LoadCost(a.N)
	svc := storage.New(a.Storage)
	if svc.ChargeModel() == storage.ByRequest {
		c += float64(epochs) * (m.FunctionEpochCost(a) + m.StorageEpochCost(a))
	} else {
		// Runtime-charged storage bills the whole JCT, not per-epoch slices.
		c += float64(epochs)*m.FunctionEpochCost(a) + svc.RuntimeCost(m.JobTime(a, epochs))
	}
	// Functions also bill their load time.
	c += float64(a.N) * pricing.ComputeOnlyCost(m.LoadTime(a), float64(a.MemMB))
	return c
}

// Point is one allocation with its per-epoch estimates.
type Point struct {
	Alloc Allocation
	Time  float64 // t'(θ) seconds per epoch
	Cost  float64 // c'(θ) dollars per epoch
}

// Grid describes the allocation space to enumerate.
type Grid struct {
	Ns       []int
	MemsMB   []int
	Storages []storage.Kind
}

// DefaultGrid returns the candidate grid used throughout the evaluation:
// function counts from 5 to 200, Lambda memory steps from 512 MB to 10 GB,
// and all four storage services.
func DefaultGrid() Grid {
	return Grid{
		Ns:       []int{5, 10, 15, 20, 25, 30, 40, 50, 75, 100, 150, 200},
		MemsMB:   []int{512, 1024, 1769, 2048, 3072, 4096, 6144, 8192, 10240},
		Storages: storage.Kinds(),
	}
}

// Enumerate evaluates every feasible allocation of the grid in grid order
// (n, then memory, then storage). The evaluation happens once per grid into
// the dense table; subsequent calls return a fresh copy of the table's
// points.
func (m *Model) Enumerate(g Grid) []Point {
	if len(g.Ns)*len(g.MemsMB)*len(g.Storages) == 0 {
		return nil
	}
	t := m.ensureTable(g)
	out := make([]Point, len(t.points))
	copy(out, t.points)
	return out
}

// Pareto returns the Pareto boundary of points in the (time, cost) plane:
// the subset not dominated by any other point (θ2 is dominated when some θ1
// has both lower time and lower cost). The result is sorted by ascending
// time (hence descending cost).
func Pareto(points []Point) []Point {
	if len(points) == 0 {
		return nil
	}
	sorted := make([]Point, len(points))
	copy(sorted, points)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Time != sorted[j].Time {
			return sorted[i].Time < sorted[j].Time
		}
		return sorted[i].Cost < sorted[j].Cost
	})
	var front []Point
	best := math.Inf(1) // not Cost+1, which equals Cost from 2^53 on
	for _, p := range sorted {
		if p.Cost < best {
			front = append(front, p)
			best = p.Cost
		}
	}
	return front
}

// ParetoSet enumerates the grid and returns its Pareto boundary — the 𝒫 of
// Table III that every optimization searches instead of the full Θ. The
// boundary is derived once per grid (and shared via the table intern);
// the caller receives a fresh copy it may mutate freely. Callers that can
// honor the no-mutation contract should prefer ParetoFrontier, which skips
// the copy.
func (m *Model) ParetoSet(g Grid) []Point {
	return append([]Point(nil), m.ParetoFrontier(g).Points()...)
}

// gridKey is a canonical signature of a grid, used (with the model
// signature) as the table intern key. Grids that differ only in slice
// identity hash the same. It is computed once per table a model adopts, not
// per lookup — table lookups compare the grid slices directly.
func gridKey(g Grid) string {
	return fmt.Sprintf("%v|%v|%v", g.Ns, g.MemsMB, g.Storages)
}

// Dominates reports whether p strictly dominates q (better or equal in both
// dimensions, strictly better in at least one).
func Dominates(p, q Point) bool {
	return p.Time <= q.Time && p.Cost <= q.Cost && (p.Time < q.Time || p.Cost < q.Cost)
}
