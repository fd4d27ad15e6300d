package cost

import (
	"testing"

	"repro/internal/workload"
)

func BenchmarkEnumerate(b *testing.B) {
	m := NewModel(workload.MobileNet())
	g := DefaultGrid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := m.Enumerate(g); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// denseGrid is a profiler-scale allocation space (every n from 2 to 200,
// every Lambda memory step).
func denseGrid() Grid {
	g := Grid{Storages: DefaultGrid().Storages}
	for n := 2; n <= 200; n++ {
		g.Ns = append(g.Ns, n)
	}
	for mem := 128; mem <= 10240; mem += 64 {
		g.MemsMB = append(g.MemsMB, mem)
	}
	return g
}

func BenchmarkEnumerateDense(b *testing.B) {
	m := NewModel(workload.MobileNet())
	g := denseGrid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := m.Enumerate(g); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkPareto(b *testing.B) {
	m := NewModel(workload.MobileNet())
	pts := m.Enumerate(DefaultGrid())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if front := Pareto(pts); len(front) == 0 {
			b.Fatal("no front")
		}
	}
}
