package core

import (
	"math"
	"testing"

	"repro/internal/storage"
	"repro/internal/trainer"
	"repro/internal/workload"
)

// BenchmarkFrameworkCell is one MobileNet cell of the fig12 shape on one
// fresh Framework per iteration: the two unconstrained reference runs, then
// CE-scaling and modified Cirrus (VM-PS pinned, immediate restarts) under
// the budget the references give. All four sessions replay one loss
// sequence, so the later ones read their online fits from the framework's
// history tree; the grid table is interned after the first iteration.
func BenchmarkFrameworkCell(b *testing.B) {
	w := workload.MobileNet()
	const seed = 2023
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fw := New(w)
		cheap, err := fw.Train(Options{QoS: 1e15, Seed: seed}, trainer.NewRunner(seed))
		if err != nil {
			b.Fatal(err)
		}
		fast, err := fw.Train(Options{Budget: 1e15, Seed: seed}, trainer.NewRunner(seed))
		if err != nil {
			b.Fatal(err)
		}
		budget := math.Sqrt(cheap.Result.TotalCost * fast.Result.TotalCost)
		vmps := storage.VMPS
		for r, opt := range []Options{
			{Budget: budget, Seed: seed},
			{Budget: budget, Seed: seed, PinStorage: &vmps, DisableDelayedRestart: true},
		} {
			if _, err := fw.Train(opt, trainer.NewRunner(seed+uint64(r)*2)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
