package dataset

import (
	"testing"

	"repro/internal/sim"
)

func BenchmarkPartition(b *testing.B) {
	m := GenerateBinary(sim.NewRand(1), GenConfig{Samples: 4000, Features: 64, NoiseFlip: 0.1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Partition(8)
	}
}

func BenchmarkGenerateBinary(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GenerateBinary(sim.NewRand(1), GenConfig{Samples: 1500, Features: 256, NoiseFlip: 0.22})
	}
}

// BenchmarkGenerateRegression is fig15's LR-YFCC matrix: 4000 rows of 256
// features, one batch of normal deviates per row.
func BenchmarkGenerateRegression(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GenerateRegression(sim.NewRand(1), GenConfig{Samples: 4000, Features: 256, NoiseStd: 8})
	}
}
