package cost

import (
	"fmt"
	"sync"
)

// Frontier is an immutable, shared view of a Pareto boundary: points in
// strictly ascending Time and strictly descending Cost order (the sweep in
// Pareto collapses time ties, so both orders are strict by construction).
// Frontiers are interned per (workload, pricing, limits, bandwidth, noise,
// grid) signature — ten thousand tenants running the same model class hold
// the same *Frontier instead of ten thousand defensive copies — so the
// backing points must never be mutated. Callers that need a private
// mutable slice use Model.ParetoSet, which keeps its copying contract.
type Frontier struct {
	pts []Point
}

// Len returns the number of boundary points.
func (f *Frontier) Len() int {
	if f == nil {
		return 0
	}
	return len(f.pts)
}

// At returns the i-th boundary point in ascending-Time order.
func (f *Frontier) At(i int) Point { return f.pts[i] }

// Points returns the shared backing slice in ascending-Time order. It is
// borrowed, not owned: mutating it corrupts every tenant sharing the
// frontier.
func (f *Frontier) Points() []Point {
	if f == nil {
		return nil
	}
	return f.pts
}

// frontierIntern maps (model signature, grid signature) to the one shared
// *Frontier for that configuration, across all Model instances.
var frontierIntern sync.Map // string -> *Frontier

// gridTable is the dense per-grid estimate table, the package's one cache:
// every feasible grid point is evaluated once at build time into
// index-addressed slots, so a lookup is one map probe and one slice index —
// no interface boxing, no per-call stores. A Model typically holds exactly
// one table (the default grid).
type gridTable struct {
	grid     Grid
	key      string               // gridKey(grid), computed once per table
	index    map[Allocation]int32 // feasible allocation -> slot in est/points
	est      []epochEst
	points   []Point // feasible grid points in grid order; immutable
	frontier *Frontier
}

// gridsEqual compares grids element-wise (the slice identity is irrelevant).
func gridsEqual(a, b Grid) bool {
	if len(a.Ns) != len(b.Ns) || len(a.MemsMB) != len(b.MemsMB) || len(a.Storages) != len(b.Storages) {
		return false
	}
	for i := range a.Ns {
		if a.Ns[i] != b.Ns[i] {
			return false
		}
	}
	for i := range a.MemsMB {
		if a.MemsMB[i] != b.MemsMB[i] {
			return false
		}
	}
	for i := range a.Storages {
		if a.Storages[i] != b.Storages[i] {
			return false
		}
	}
	return true
}

// signature is the deterministic identity of this model's analytic
// configuration: two models with equal signatures produce bit-identical
// estimates, so they may share interned frontiers. All referenced structs
// are scalar-only (no maps, no pointers), so %+v is stable.
func (m *Model) signature() string {
	return fmt.Sprintf("%+v|%+v|%+v|%g|%g",
		*m.Workload, m.Prices, m.Limits, m.LoadMBps, m.StragglerSigma)
}

// ensureTable returns the dense table for g, building it on first use. The
// fast path is a lock-free scan of the (tiny, append-only) table list.
func (m *Model) ensureTable(g Grid) *gridTable {
	if ts, _ := m.tables.Load().([]*gridTable); ts != nil {
		for _, t := range ts {
			if gridsEqual(t.grid, g) {
				return t
			}
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ts, _ := m.tables.Load().([]*gridTable)
	for _, t := range ts {
		if gridsEqual(t.grid, g) {
			return t
		}
	}
	t := m.buildTable(g)
	next := make([]*gridTable, len(ts)+1)
	copy(next, ts)
	next[len(ts)] = t
	m.tables.Store(next)
	return t
}

// buildTable evaluates every feasible grid point in grid order (n, then
// memory, then storage) and interns the resulting Pareto frontier.
func (m *Model) buildTable(g Grid) *gridTable {
	t := &gridTable{
		// Private copies: the caller may mutate its grid slices later.
		grid: Grid{
			Ns:       append([]int(nil), g.Ns...),
			MemsMB:   append([]int(nil), g.MemsMB...),
			Storages: append(g.Storages[:0:0], g.Storages...),
		},
		key:   gridKey(g),
		index: make(map[Allocation]int32, len(g.Ns)*len(g.MemsMB)*len(g.Storages)),
	}
	for _, n := range g.Ns {
		for _, mem := range g.MemsMB {
			for _, s := range g.Storages {
				a := Allocation{N: n, MemMB: mem, Storage: s}
				if !m.Feasible(a) {
					continue
				}
				est := m.computeEpochEst(a)
				t.index[a] = int32(len(t.points))
				t.points = append(t.points, Point{Alloc: a, Time: est.time, Cost: est.cost})
				t.est = append(t.est, est)
			}
		}
	}
	front := &Frontier{pts: Pareto(t.points)}
	fkey := m.signature() + "\x00" + t.key
	if shared, loaded := frontierIntern.LoadOrStore(fkey, front); loaded {
		front = shared.(*Frontier)
	}
	t.frontier = front
	return t
}

// ParetoFrontier returns the immutable shared Pareto boundary of the grid —
// the 𝒫 of Table III as one interned object. Schedulers search this view
// directly; use ParetoSet for a private mutable copy.
func (m *Model) ParetoFrontier(g Grid) *Frontier {
	return m.ensureTable(g).frontier
}
