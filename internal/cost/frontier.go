package cost

import (
	"fmt"
	"sync"
)

// Frontier is an immutable, shared view of a Pareto boundary: points in
// strictly ascending Time and strictly descending Cost order (the sweep in
// Pareto collapses time ties, so both orders are strict by construction).
// Frontiers are interned with their grid table per (workload, grid)
// signature — ten thousand tenants running
// the same model class hold the same *Frontier instead of ten thousand
// defensive copies — so the backing points must never be mutated. Callers
// that need a private mutable slice use Model.ParetoSet, which keeps its
// copying contract.
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

// Points returns the shared backing slice in ascending-Time order. It is
// borrowed, not owned: mutating it corrupts every tenant sharing the
// frontier.
func (f *Frontier) Points() []Point {
	if f == nil {
		return nil
	}
	return f.pts
}

// tableIntern maps (workload signature, grid signature) to the one shared
// *gridTable for that configuration, across all Model instances: equal
// signatures give bit-identical estimates, so the table and the frontier it
// carries are built once per process.
var tableIntern sync.Map // string -> *gridTable

// gridTable is the dense per-grid estimate table, the package's one cache:
// every feasible grid point is evaluated once at build time into
// index-addressed slots, so a lookup is one map probe and one slice index —
// no interface boxing, no per-call stores. A Model typically holds exactly
// one table (the default grid). Tables are interned and immutable once
// built.
type gridTable struct {
	grid     Grid
	index    map[Allocation]int32 // feasible allocation -> slot in points
	points   []Point              // feasible grid points in grid order; immutable
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
// configuration, which is its workload alone: two models of equal workloads
// produce bit-identical estimates, so they may share interned tables. All
// referenced structs are scalar-only (no maps, no pointers), so %+v is
// stable.
func (m *Model) signature() string {
	return fmt.Sprintf("%+v", *m.Workload)
}

// ensureTable returns the dense table for g: from the model's own list, else
// from the intern, else built. The fast path is a lock-free scan of the
// (tiny, append-only) per-model list.
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
	t := m.internTable(g)
	next := make([]*gridTable, len(ts)+1)
	copy(next, ts)
	next[len(ts)] = t
	m.tables.Store(next)
	return t
}

// internTable returns the process-wide table for m's signature and g,
// building it when no equal model has.
func (m *Model) internTable(g Grid) *gridTable {
	key := m.signature() + "\x00" + gridKey(g)
	if t, ok := tableIntern.Load(key); ok {
		return t.(*gridTable)
	}
	t, _ := tableIntern.LoadOrStore(key, m.buildTable(g))
	return t.(*gridTable)
}

// buildTable evaluates every feasible grid point in grid order (n, then
// memory, then storage) and derives the Pareto frontier.
func (m *Model) buildTable(g Grid) *gridTable {
	t := &gridTable{
		// Private copies: the caller may mutate its grid slices later.
		grid: Grid{
			Ns:       append([]int(nil), g.Ns...),
			MemsMB:   append([]int(nil), g.MemsMB...),
			Storages: append(g.Storages[:0:0], g.Storages...),
		},
		index: make(map[Allocation]int32, len(g.Ns)*len(g.MemsMB)*len(g.Storages)),
	}
	for _, n := range g.Ns {
		for _, mem := range g.MemsMB {
			for _, s := range g.Storages {
				a := Allocation{N: n, MemMB: mem, Storage: s}
				if !m.Feasible(a) {
					continue
				}
				t.index[a] = int32(len(t.points))
				t.points = append(t.points, m.computePoint(a))
			}
		}
	}
	t.frontier = &Frontier{pts: Pareto(t.points)}
	return t
}

// ParetoFrontier returns the immutable shared Pareto boundary of the grid —
// the 𝒫 of Table III as one interned object. Schedulers search this view
// directly; use ParetoSet for a private mutable copy.
func (m *Model) ParetoFrontier(g Grid) *Frontier {
	return m.ensureTable(g).frontier
}
