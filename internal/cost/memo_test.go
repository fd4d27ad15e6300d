package cost

import (
	"math"
	"sync"
	"testing"

	"repro/internal/workload"
)

// uncachedEpochTime recomputes t'(θ) from the component models, bypassing
// the dense table entirely.
func uncachedEpochTime(m *Model, a Allocation) float64 {
	return m.ComputeTime(a) + m.SyncTime(a)
}

// uncachedEpochCost recomputes c'(θ) from the component models.
func uncachedEpochCost(m *Model, a Allocation) float64 {
	t := uncachedEpochTime(m, a)
	return m.functionEpochCost(a, t) + m.storageEpochCost(a, t)
}

// TestEpochMemoCoherent asserts the estimates are bit-identical to an
// uncached recomputation for every feasible point of the default grid, both
// before the grid's dense table exists (computed on the spot) and after
// (table lookup) — both paths must produce the same float arithmetic.
func TestEpochMemoCoherent(t *testing.T) {
	for _, w := range workload.Evaluated() {
		m := NewModel(w)
		g := DefaultGrid()
		for pass, path := range []string{"computed", "table"} {
			if pass == 1 {
				m.ParetoFrontier(g) // builds the table
			}
			for _, n := range g.Ns {
				for _, mem := range g.MemsMB {
					for _, s := range g.Storages {
						a := Allocation{N: n, MemMB: mem, Storage: s}
						if !m.Feasible(a) {
							continue
						}
						if got, want := m.EpochTime(a), uncachedEpochTime(m, a); got != want {
							t.Fatalf("%s %v %s: EpochTime = %v, uncached %v", w.Name, a, path, got, want)
						}
						if got, want := m.EpochCost(a), uncachedEpochCost(m, a); got != want {
							t.Fatalf("%s %v %s: EpochCost = %v, uncached %v", w.Name, a, path, got, want)
						}
					}
				}
			}
		}
	}
}

// TestParetoSetMemoized asserts repeated ParetoSet calls return equal
// boundaries and that the returned slice is a private copy (mutating it must
// not poison the cache).
func TestParetoSetMemoized(t *testing.T) {
	m := NewModel(workload.MobileNet())
	g := DefaultGrid()
	first := m.ParetoSet(g)
	if len(first) == 0 {
		t.Fatal("empty Pareto set")
	}
	// Sabotage the caller's copy.
	for i := range first {
		first[i].Time = math.NaN()
		first[i].Cost = -1
	}
	second := m.ParetoSet(g)
	want := Pareto(m.Enumerate(g))
	if len(second) != len(want) {
		t.Fatalf("cached ParetoSet has %d points, recomputed %d", len(second), len(want))
	}
	for i := range second {
		if second[i] != want[i] {
			t.Fatalf("cached ParetoSet[%d] = %+v, recomputed %+v (cache poisoned by caller mutation?)", i, second[i], want[i])
		}
	}
}

// TestEpochMemoConcurrent reads estimates from many goroutines on a cold
// model while half of them race to build the default grid's table and a
// second grid's; run under -race this is the thread-safety gate of the
// copy-on-write table list.
func TestEpochMemoConcurrent(t *testing.T) {
	m := NewModel(workload.ResNet50())
	g := DefaultGrid()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w%2 == 0 {
				m.ParetoFrontier(g)
				m.Enumerate(Grid{Ns: []int{10, 20}, MemsMB: []int{1769}, Storages: g.Storages})
			}
			for _, n := range g.Ns {
				for _, mem := range g.MemsMB {
					a := Allocation{N: n, MemMB: mem, Storage: g.Storages[n%len(g.Storages)]}
					if !m.Feasible(a) {
						continue
					}
					if got, want := m.EpochTime(a), uncachedEpochTime(m, a); got != want {
						select {
						case errs <- a.String():
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if bad, ok := <-errs; ok {
		t.Fatalf("concurrent EpochTime diverged from uncached at %s", bad)
	}
}

// BenchmarkEpochEstimatesCold measures the uncached estimate path (table
// bypassed): the price of an off-grid probe.
func BenchmarkEpochEstimatesCold(b *testing.B) {
	m := NewModel(workload.MobileNet())
	a := Allocation{N: 50, MemMB: 3072, Storage: DefaultGrid().Storages[0]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if uncachedEpochTime(m, a)+uncachedEpochCost(m, a) <= 0 {
			b.Fatal("bad estimate")
		}
	}
}

// BenchmarkEpochEstimatesCached measures a table hit: what the planner pays
// per candidate probe once the grid's table is built.
func BenchmarkEpochEstimatesCached(b *testing.B) {
	m := NewModel(workload.MobileNet())
	a := Allocation{N: 50, MemMB: 3072, Storage: DefaultGrid().Storages[0]}
	m.ParetoFrontier(DefaultGrid()) // build the table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.EpochTime(a)+m.EpochCost(a) <= 0 {
			b.Fatal("bad estimate")
		}
	}
}

// BenchmarkParetoSetCached measures a warm ParetoSet call (one defensive
// copy instead of a full grid enumeration + sort).
func BenchmarkParetoSetCached(b *testing.B) {
	m := NewModel(workload.MobileNet())
	g := DefaultGrid()
	m.ParetoSet(g) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if front := m.ParetoSet(g); len(front) == 0 {
			b.Fatal("no front")
		}
	}
}
