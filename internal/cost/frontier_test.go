package cost

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/workload"
)

// TestFrontierInterned: two independent models with the same analytic
// configuration must share one *Frontier instance — that sharing is what
// keeps a 10k-tenant fleet from holding 10k boundary copies.
func TestFrontierInterned(t *testing.T) {
	g := DefaultGrid()
	f1 := NewModel(workload.MobileNet()).ParetoFrontier(g)
	f2 := NewModel(workload.MobileNet()).ParetoFrontier(g)
	if f1 != f2 {
		t.Error("equal-config models should intern to the same *Frontier")
	}
	f3 := NewModel(workload.ResNet50()).ParetoFrontier(g)
	if f3 == f1 {
		t.Error("different workloads must not share a frontier")
	}
	m := NewModel(workload.MobileNet())
	m.StragglerSigma = 0.2
	if f4 := m.ParetoFrontier(g); f4 == f1 {
		t.Error("different model noise must not share a frontier")
	}
	// Repeated calls on one model return the same instance (no rebuild).
	m2 := NewModel(workload.MobileNet())
	if m2.ParetoFrontier(g) != m2.ParetoFrontier(g) {
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
	for i := range set {
		if f.At(i) != set[i] {
			t.Errorf("point %d: frontier %+v != set %+v", i, f.At(i), set[i])
		}
	}
	set[0].Cost = -1
	if f.At(0).Cost == -1 {
		t.Error("mutating a ParetoSet copy reached the shared frontier")
	}
	if f.Points()[0] != f.At(0) {
		t.Error("Points and At disagree")
	}
}

// TestFrontierStrictOrder: an interned frontier is strictly ascending in
// Time and strictly descending in Cost — the invariant the scheduler's
// binary-search selection depends on.
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
// interned frontier on each decision; Len, At and Points are borrowed views
// that copy nothing to the heap.
func TestFrontierReadsZeroAlloc(t *testing.T) {
	f := NewModel(workload.MobileNet()).ParetoFrontier(DefaultGrid())
	var cheapest Point
	if n := testing.AllocsPerRun(100, func() {
		for i, p := range f.Points() {
			if i < f.Len() && f.At(i) == p && (i == 0 || p.Cost < cheapest.Cost) {
				cheapest = p
			}
		}
	}); n != 0 {
		t.Errorf("reading the frontier allocates %.1f times per pass, want 0", n)
	}
	if cheapest != f.At(f.Len()-1) {
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

// paretoReference is the pre-fast-path implementation: unconditional
// copy+sort+sweep. The fast path must be observationally identical.
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

// TestParetoFastPathEquivalent: on randomized inputs — shuffled, sorted,
// with duplicated times and duplicated (Time, Cost) pairs — Pareto must
// return exactly what the unconditional copy+sort reference returns, and
// must not mutate its input.
func TestParetoFastPathEquivalent(t *testing.T) {
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
			// Exercise the fast path: strictly sorted input.
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

// TestParetoFastPathOnFrontier: re-paretoizing a frontier (strictly sorted
// by construction) is the identity and runs allocation-light (no copy+sort).
func TestParetoFastPathOnFrontier(t *testing.T) {
	front := NewModel(workload.MobileNet()).ParetoSet(DefaultGrid())
	if !strictlySorted(front) {
		t.Fatal("frontier should be strictly sorted")
	}
	again := Pareto(front)
	if len(again) != len(front) {
		t.Fatalf("re-pareto changed size: %d -> %d", len(front), len(again))
	}
	for i := range front {
		if again[i] != front[i] {
			t.Errorf("point %d changed: %+v -> %+v", i, front[i], again[i])
		}
	}
}

func TestStrictlySorted(t *testing.T) {
	cases := []struct {
		pts  []Point
		want bool
	}{
		{nil, true},
		{[]Point{{Time: 1, Cost: 5}}, true},
		{[]Point{{Time: 1, Cost: 5}, {Time: 2, Cost: 3}}, true},
		{[]Point{{Time: 1, Cost: 3}, {Time: 1, Cost: 5}}, true},  // tie on time, cost ascending
		{[]Point{{Time: 1, Cost: 5}, {Time: 1, Cost: 5}}, false}, // duplicate pair: unsafe
		{[]Point{{Time: 2, Cost: 5}, {Time: 1, Cost: 3}}, false},
		{[]Point{{Time: 1, Cost: 5}, {Time: 1, Cost: 3}}, false},
	}
	for i, c := range cases {
		if got := strictlySorted(c.pts); got != c.want {
			t.Errorf("case %d: strictlySorted=%v want %v", i, got, c.want)
		}
	}
}
