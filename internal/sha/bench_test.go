package sha

import (
	"testing"

	"repro/internal/trainer"
	"repro/internal/workload"
)

// BenchmarkSHARun is one Successive-Halving run of 64 MobileNet trials
// under the optimal static plan, on a fresh runner each iteration: the
// trainer's job lifecycle at the shape of the HPT figures. With -benchmem
// its allocs/op are the per-trial engines, the trial slab, the stage
// reports and the fresh runner's substrate; the trials themselves
// allocate nothing once the runner's buffers are warm.
func BenchmarkSHARun(b *testing.B) {
	cfg := tuningConfig(b, workload.MobileNet(), 64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Runner = trainer.NewRunner(1)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
