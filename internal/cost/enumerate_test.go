package cost

import (
	"testing"

	"repro/internal/workload"
)

// TestEnumerateGridOrder asserts Enumerate returns exactly the feasible
// allocations in grid order (n, then memory, then storage), each carrying
// the estimates recomputed from the component models.
func TestEnumerateGridOrder(t *testing.T) {
	grids := map[string]Grid{
		"default": DefaultGrid(),
		"dense":   denseGrid(),
		"single":  {Ns: []int{10}, MemsMB: []int{1769}, Storages: DefaultGrid().Storages},
		"empty":   {},
	}
	for _, w := range workload.Evaluated() {
		m := NewModel(w)
		for name, g := range grids {
			var want []Point
			for _, n := range g.Ns {
				for _, mem := range g.MemsMB {
					for _, s := range g.Storages {
						if a := (Allocation{N: n, MemMB: mem, Storage: s}); m.Feasible(a) {
							want = append(want, Point{Alloc: a, Time: uncachedEpochTime(m, a), Cost: uncachedEpochCost(m, a)})
						}
					}
				}
			}
			got := m.Enumerate(g)
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d points, want %d", w.Name, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: point %d = %+v, want %+v", w.Name, name, i, got[i], want[i])
				}
			}
		}
	}
}
