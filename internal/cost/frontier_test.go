package cost

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/workload"
)

// TestFrontierInterned: two independent models with the same analytic
// configuration must share one grid table and the *Frontier it carries —
// that sharing is what keeps a 10k-tenant fleet from holding 10k boundary
// copies, and a paper run from rebuilding one table per framework.
func TestFrontierInterned(t *testing.T) {
	g := DefaultGrid()
	m1, m2 := NewModel(workload.MobileNet()), NewModel(workload.MobileNet())
	f1, f2 := m1.ParetoFrontier(g), m2.ParetoFrontier(g)
	if f1 != f2 {
		t.Error("equal-config models should intern to the same *Frontier")
	}
	if m1.ensureTable(g) != m2.ensureTable(g) {
		t.Error("equal-config models should intern to the same grid table")
	}
	f3 := NewModel(workload.ResNet50()).ParetoFrontier(g)
	if f3 == f1 {
		t.Error("different workloads must not share a frontier")
	}
	// A workload that differs in one calibration value gives its model its
	// own table, holding its own estimates.
	w := *workload.MobileNet()
	w.UBase *= 2
	m := NewModel(&w)
	if m.ParetoFrontier(g) == f1 || m.ensureTable(g) == m1.ensureTable(g) {
		t.Error("a model of another workload configuration must not share a table or frontier")
	}
	a := m.ParetoFrontier(g).Points()[0].Alloc
	if m.EpochTime(a) != uncachedEpochTime(m, a) {
		t.Error("a model of another workload configuration reads estimates it did not compute")
	}
	// Repeated calls on one model return the same instance (no rebuild).
	m3 := NewModel(workload.MobileNet())
	if m3.ParetoFrontier(g) != m3.ParetoFrontier(g) {
		t.Error("ParetoFrontier should be stable per model")
	}
}

// TestFrontierMatchesParetoSet: the shared view and the copying API must
// expose identical boundaries, and ParetoSet copies must be independent.
func TestFrontierMatchesParetoSet(t *testing.T) {
	m := NewModel(workload.MobileNet())
	g := DefaultGrid()
	f := m.ParetoFrontier(g)
	set := m.ParetoSet(g)
	if f.Len() != len(set) {
		t.Fatalf("frontier len %d != pareto set len %d", f.Len(), len(set))
	}
	for i, p := range f.Points() {
		if p != set[i] {
			t.Errorf("point %d: frontier %+v != set %+v", i, p, set[i])
		}
	}
	set[0].Cost = -1
	if f.Points()[0].Cost == -1 {
		t.Error("mutating a ParetoSet copy reached the shared frontier")
	}
}

// TestFrontierStrictOrder: an interned frontier is strictly ascending in
// Time and strictly descending in Cost — the order a scheduler adopts it in
// without a sort, so that its index 0 is the fastest point.
func TestFrontierStrictOrder(t *testing.T) {
	for _, w := range []*workload.Model{workload.MobileNet(), workload.ResNet50()} {
		f := NewModel(w).ParetoFrontier(DefaultGrid())
		pts := f.Points()
		if len(pts) == 0 {
			t.Fatalf("%s: empty frontier", w.Name)
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Time <= pts[i-1].Time {
				t.Errorf("%s: Time not strictly ascending at %d", w.Name, i)
			}
			if pts[i].Cost >= pts[i-1].Cost {
				t.Errorf("%s: Cost not strictly descending at %d", w.Name, i)
			}
		}
	}
}

// TestFrontierNilSafe: a nil frontier behaves as empty.
func TestFrontierNilSafe(t *testing.T) {
	var f *Frontier
	if f.Len() != 0 || f.Points() != nil {
		t.Error("nil frontier should be empty")
	}
}

// TestFrontierReadsZeroAlloc: every controller of a fleet reads the one
// interned frontier on each decision; Len and Points are borrowed views
// that copy nothing to the heap.
func TestFrontierReadsZeroAlloc(t *testing.T) {
	f := NewModel(workload.MobileNet()).ParetoFrontier(DefaultGrid())
	var cheapest Point
	if n := testing.AllocsPerRun(100, func() {
		for i, p := range f.Points() {
			if i < f.Len() && (i == 0 || p.Cost < cheapest.Cost) {
				cheapest = p
			}
		}
	}); n != 0 {
		t.Errorf("reading the frontier allocates %.1f times per pass, want 0", n)
	}
	if cheapest != f.Points()[f.Len()-1] {
		t.Errorf("cheapest point %+v is not the frontier's last", cheapest)
	}
}

// TestDenseTableCoherent: estimates served from the dense grid table must
// be bit-identical to fresh computation (lookups before and after the
// table is built agree).
func TestDenseTableCoherent(t *testing.T) {
	g := DefaultGrid()
	before := NewModel(workload.MobileNet())
	after := NewModel(workload.MobileNet())
	after.ParetoFrontier(g) // builds the dense table up front
	for _, n := range g.Ns {
		for _, mem := range g.MemsMB {
			for _, s := range g.Storages {
				a := Allocation{N: n, MemMB: mem, Storage: s}
				if !before.Feasible(a) {
					continue
				}
				bt, at_ := before.EpochTime(a), after.EpochTime(a)
				bc, ac := before.EpochCost(a), after.EpochCost(a)
				if bt != at_ || bc != ac {
					t.Fatalf("%v: table (%v,%v) != computed (%v,%v)", a, at_, ac, bt, bc)
				}
			}
		}
	}
	// Off-grid probes are computed on the spot on both models.
	off := Allocation{N: 7, MemMB: 1536, Storage: g.Storages[0]}
	if after.Feasible(off) {
		if after.EpochTime(off) != before.EpochTime(off) {
			t.Error("off-grid estimate mismatch")
		}
	}
}

func TestGridsEqual(t *testing.T) {
	g := DefaultGrid()
	h := DefaultGrid()
	if !gridsEqual(g, h) {
		t.Error("identical grids should compare equal")
	}
	h.Ns = append([]int(nil), g.Ns...)
	h.Ns[0]++
	if gridsEqual(g, h) {
		t.Error("differing Ns should compare unequal")
	}
	if gridsEqual(g, Grid{Ns: g.Ns, MemsMB: g.MemsMB[:1], Storages: g.Storages}) {
		t.Error("differing lengths should compare unequal")
	}
}

// TestEnumerateReturnsPrivateCopies: Enumerate's result must stay mutable
// by the caller without corrupting the shared table.
func TestEnumerateReturnsPrivateCopies(t *testing.T) {
	m := NewModel(workload.MobileNet())
	g := DefaultGrid()
	a := m.Enumerate(g)
	b := m.Enumerate(g)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("enumerate sizes: %d vs %d", len(a), len(b))
	}
	a[0].Cost = -42
	if b[0].Cost == -42 || m.Enumerate(g)[0].Cost == -42 {
		t.Error("Enumerate results share backing storage")
	}
}

// paretoReference is the textbook boundary: copy, sort by (Time, Cost),
// sweep.
func paretoReference(points []Point) []Point {
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
	best := sorted[0].Cost + 1
	for _, p := range sorted {
		if p.Cost < best {
			front = append(front, p)
			best = p.Cost
		}
	}
	return front
}

// TestParetoMatchesReference: on randomized inputs — shuffled, sorted,
// with duplicated times and duplicated (Time, Cost) pairs — Pareto must
// return exactly what the copy+sort reference returns, and must not mutate
// its input.
func TestParetoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		pts := make([]Point, n)
		for i := range pts {
			// Small integer coordinates force plenty of ties.
			pts[i] = Point{
				Alloc: Allocation{N: i + 1},
				Time:  float64(1 + rng.Intn(8)),
				Cost:  float64(1 + rng.Intn(8)),
			}
		}
		if trial%3 == 0 {
			// A sorted input with no repeated (Time, Cost) pair.
			sort.Slice(pts, func(i, j int) bool {
				if pts[i].Time != pts[j].Time {
					return pts[i].Time < pts[j].Time
				}
				return pts[i].Cost < pts[j].Cost
			})
			dedup := pts[:0]
			for _, p := range pts {
				if len(dedup) == 0 || p.Time != dedup[len(dedup)-1].Time || p.Cost != dedup[len(dedup)-1].Cost {
					dedup = append(dedup, p)
				}
			}
			pts = dedup
		}
		orig := append([]Point(nil), pts...)
		want := paretoReference(pts)
		got := Pareto(pts)
		if len(want) != len(got) {
			t.Fatalf("trial %d: len %d != %d", trial, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: point %d: got %+v want %+v", trial, i, got[i], want[i])
			}
		}
		for i := range orig {
			if pts[i] != orig[i] {
				t.Fatalf("trial %d: Pareto mutated its input at %d", trial, i)
			}
		}
	}
}
