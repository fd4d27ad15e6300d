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
// recompute and the planner probes the same allocations thousands of times.
// Grid allocations live in a dense per-grid table built once by the first
// Enumerate/ParetoSet/ParetoFrontier call (one map probe + slice index per
// lookup); an off-grid allocation is simply computed (~150 ns). The tables
// assume the model is configured once and then treated as immutable: mutate
// LoadMBps / StragglerSigma only before the first estimate call. The tables
// are safe for concurrent readers.
type Model struct {
	Workload *workload.Model
	Prices   pricing.PriceBook
	Limits   faas.Limits

	// LoadMBps is B_S3 of Eq. 2: the bandwidth at which functions load
	// their dataset partitions from object storage.
	LoadMBps float64

	// StragglerSigma is the per-function log-normal compute-noise sigma the
	// model assumes when estimating the BSP barrier penalty (matching
	// trainer.DefaultNoise); the epoch waits for the slowest of n
	// functions, so expected compute time inflates with n. Zero disables
	// the correction.
	StragglerSigma float64

	services map[storage.Kind]*storage.Service

	mu     sync.Mutex   // guards table builds
	tables atomic.Value // []*gridTable, copy-on-write append
}

// epochEst is the per-epoch (t'(θ), c'(θ)) pair. Time and cost are cached
// together because every consumer of one is about to ask for the other (the
// cost depends on the epoch time for runtime-charged storage).
type epochEst struct {
	time float64
	cost float64
}

// epochEstimates returns the estimates for θ: from the dense table when θ
// is a point of an already-built grid, computed otherwise.
func (m *Model) epochEstimates(a Allocation) epochEst {
	if ts, _ := m.tables.Load().([]*gridTable); ts != nil {
		for _, t := range ts {
			if idx, ok := t.index[a]; ok {
				return t.est[idx]
			}
		}
	}
	return m.computeEpochEst(a)
}

// computeEpochEst evaluates (t'(θ), c'(θ)) from scratch.
func (m *Model) computeEpochEst(a Allocation) epochEst {
	t := m.ComputeTime(a) + m.SyncTime(a)
	return epochEst{time: t, cost: m.functionEpochCost(a, t) + m.storageEpochCost(a, t)}
}

// NewModel returns an analytic model for w under default prices and limits.
func NewModel(w *workload.Model) *Model {
	return NewModelWith(w, pricing.Default(), faas.DefaultLimits())
}

// NewModelWith returns an analytic model with explicit prices and limits.
func NewModelWith(w *workload.Model, pb pricing.PriceBook, limits faas.Limits) *Model {
	m := &Model{Workload: w, Prices: pb, Limits: limits, LoadMBps: 80,
		StragglerSigma: 0.05,
		services:       make(map[storage.Kind]*storage.Service)}
	for _, k := range storage.ExtendedKinds() {
		m.services[k] = storage.New(k, pb)
	}
	return m
}

// Service returns the storage model for kind.
func (m *Model) Service(kind storage.Kind) *storage.Service { return m.services[kind] }

// Feasible reports whether θ can run the workload at all: the function
// memory must be allocatable and hold the data partition, the storage must
// accept the model size, and the function count must fit the concurrency
// cap.
func (m *Model) Feasible(a Allocation) bool {
	if a.N < 1 || a.N > m.Limits.MaxConcurrency {
		return false
	}
	if m.Limits.ValidateMemory(a.MemMB) != nil {
		return false
	}
	if !m.Workload.Feasible(a.N, a.MemMB) {
		return false
	}
	return m.services[a.Storage].Supports(m.Workload.ParamsMB)
}

// Iterations returns k = D/(n*b_z), the BSP iterations per epoch.
func (m *Model) Iterations(a Allocation) int {
	return m.Workload.IterationsPerEpoch(a.N)
}

// LoadTime returns t^l: the time for each function to load its data
// partition from object storage (Eq. 2 first term, D/(n*B_S3)).
func (m *Model) LoadTime(a Allocation) float64 {
	return m.Workload.Dataset.PartitionSizeMB(a.N) / m.LoadMBps
}

// ComputeTime returns the per-epoch gradient computation time: each
// function processes its D/n partition once per epoch at u(m) seconds/MB,
// inflated by the expected BSP straggler penalty (the barrier waits for the
// slowest of n functions).
func (m *Model) ComputeTime(a Allocation) float64 {
	base := m.Workload.Dataset.PartitionSizeMB(a.N) * m.Workload.U(a.MemMB)
	return base * m.stragglerFactor(a.N)
}

// stragglerFactor approximates E[max of n lognormal(0, sigma)] as
// exp(sigma * sqrt(2 ln n)).
func (m *Model) stragglerFactor(n int) float64 {
	if m.StragglerSigma <= 0 || n <= 1 {
		return 1
	}
	return math.Exp(m.StragglerSigma * math.Sqrt(2*math.Log(float64(n))))
}

// SyncTime returns the per-epoch parameter synchronization time:
// k * t^p(θ) with t^p from Eq. 3.
func (m *Model) SyncTime(a Allocation) float64 {
	svc := m.services[a.Storage]
	return float64(m.Iterations(a)) * svc.SyncTime(a.N, m.Workload.ParamsMB)
}

// EpochTime returns t'(θ) for a steady-state epoch (compute + sync; the
// one-time load and startup are accounted by JobTime).
func (m *Model) EpochTime(a Allocation) float64 {
	return m.epochEstimates(a).time
}

// FunctionEpochCost returns the per-epoch compute bill: n functions each
// running the epoch duration at p_f(m) (Eq. 4 second term).
func (m *Model) FunctionEpochCost(a Allocation) float64 {
	return m.functionEpochCost(a, m.EpochTime(a))
}

func (m *Model) functionEpochCost(a Allocation, epochTime float64) float64 {
	return float64(a.N) * m.Prices.ComputeOnlyCost(epochTime, float64(a.MemMB))
}

// StorageEpochCost returns c^s per epoch (Eq. 5): request charges for the
// k synchronizations (request-charged services) or the epoch's runtime
// share (runtime-charged services).
func (m *Model) StorageEpochCost(a Allocation) float64 {
	return m.storageEpochCost(a, m.EpochTime(a))
}

func (m *Model) storageEpochCost(a Allocation, epochTime float64) float64 {
	svc := m.services[a.Storage]
	if svc.ChargeModel() == storage.ByRequest {
		return float64(m.Iterations(a)) * svc.SyncRequestCost(a.N, m.Workload.ParamsMB)
	}
	return svc.RuntimeCost(epochTime)
}

// EpochCost returns c'(θ): the full per-epoch bill.
func (m *Model) EpochCost(a Allocation) float64 {
	return m.epochEstimates(a).cost
}

// InvocationCost returns the one-time n*p_ivk charge for invoking the
// function group (Eq. 4 first term), paid at start and on every restart.
func (m *Model) InvocationCost(a Allocation) float64 {
	return float64(a.N) * m.Prices.FunctionInvoke
}

// JobTime estimates the JCT of a training job of epochs epochs under one
// fixed allocation: startup + provisioning + load + epochs * epoch time.
func (m *Model) JobTime(a Allocation, epochs int) float64 {
	start := m.startupTime(a)
	return start + m.LoadTime(a) + float64(epochs)*m.EpochTime(a)
}

// StartupEstimate returns the deterministic startup latency of a fresh
// function group under θ: the cold start (or the storage provisioning
// delay when that dominates).
func (m *Model) StartupEstimate(a Allocation) float64 { return m.startupTime(a) }

func (m *Model) startupTime(a Allocation) float64 {
	cold := faas.DefaultStartup()
	t := cold.ColdBase + cold.ColdPerGB*float64(a.MemMB)/1024
	if p := m.services[a.Storage].ProvisionDelay(); p > t {
		t = p // storage provisioning overlaps function cold start
	}
	return t
}

// JobCost estimates the total bill of a training job of epochs epochs under
// one fixed allocation.
func (m *Model) JobCost(a Allocation, epochs int) float64 {
	c := m.InvocationCost(a) + storage.LoadCost(m.Prices, a.N)
	svc := m.services[a.Storage]
	if svc.ChargeModel() == storage.ByRequest {
		c += float64(epochs) * (m.FunctionEpochCost(a) + m.StorageEpochCost(a))
	} else {
		// Runtime-charged storage bills the whole JCT, not per-epoch slices.
		c += float64(epochs)*m.FunctionEpochCost(a) + svc.RuntimeCost(m.JobTime(a, epochs))
	}
	// Functions also bill their load time.
	c += float64(a.N) * m.Prices.ComputeOnlyCost(m.LoadTime(a), float64(a.MemMB))
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
	sorted := points
	if !strictlySorted(points) {
		sorted = make([]Point, len(points))
		copy(sorted, points)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].Time != sorted[j].Time {
				return sorted[i].Time < sorted[j].Time
			}
			return sorted[i].Cost < sorted[j].Cost
		})
	}
	var front []Point
	best := sorted[0].Cost + 1
	for _, p := range sorted {
		if p.Cost < best {
			front = append(front, p)
			best = p.Cost
		}
	}
	return front
}

// strictlySorted reports whether points are strictly increasing in the
// (Time, Cost) lexicographic order Pareto sorts by. On such input the sweep
// can run on the points directly (read-only) and skip the copy+sort: the
// sort would be the identity permutation, and strictness rules out equal
// (Time, Cost) pairs, the only elements an unstable sort may reorder. This
// makes re-deriving a boundary from an already-ordered frontier O(P).
func strictlySorted(points []Point) bool {
	for i := 1; i < len(points); i++ {
		p, q := &points[i-1], &points[i]
		if p.Time < q.Time {
			continue
		}
		if p.Time > q.Time || p.Cost >= q.Cost {
			return false
		}
	}
	return true
}

// ParetoSet enumerates the grid and returns its Pareto boundary — the 𝒫 of
// Table III that every optimization searches instead of the full Θ. The
// boundary is derived once per grid (and shared via the frontier intern);
// the caller receives a fresh copy it may mutate freely. Callers that can
// honor the no-mutation contract should prefer ParetoFrontier, which skips
// the copy.
func (m *Model) ParetoSet(g Grid) []Point {
	return append([]Point(nil), m.ParetoFrontier(g).Points()...)
}

// gridKey is a canonical signature of a grid, used (with the model
// signature) as the frontier intern key. Grids that differ only in slice
// identity hash the same. It is computed once per gridTable, not per
// lookup — table lookups compare the grid slices directly.
func gridKey(g Grid) string {
	return fmt.Sprintf("%v|%v|%v", g.Ns, g.MemsMB, g.Storages)
}

// Dominates reports whether p strictly dominates q (better or equal in both
// dimensions, strictly better in at least one).
func Dominates(p, q Point) bool {
	return p.Time <= q.Time && p.Cost <= q.Cost && (p.Time < q.Time || p.Cost < q.Cost)
}
