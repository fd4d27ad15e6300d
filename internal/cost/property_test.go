package cost

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

// TestEstimatesFiniteAndPositive: every feasible allocation of every
// evaluated model yields finite, positive per-epoch estimates.
func TestEstimatesFiniteAndPositive(t *testing.T) {
	for _, w := range workload.Evaluated() {
		m := NewModel(w)
		for _, p := range m.Enumerate(DefaultGrid()) {
			for name, v := range map[string]float64{
				"EpochTime":   p.Time,
				"EpochCost":   p.Cost,
				"LoadTime":    m.LoadTime(p.Alloc),
				"ComputeTime": m.ComputeTime(p.Alloc),
				"SyncTime":    m.SyncTime(p.Alloc),
				"JobTime":     m.JobTime(p.Alloc, 10),
				"JobCost":     m.JobCost(p.Alloc, 10),
			} {
				if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s %v: %s = %g", w.Name, p.Alloc, name, v)
				}
			}
		}
	}
}

// TestJobTimeCostMonotoneInEpochs across random feasible allocations.
func TestJobTimeCostMonotoneInEpochs(t *testing.T) {
	m := NewModel(workload.MobileNet())
	pts := m.Enumerate(DefaultGrid())
	if err := quick.Check(func(pi uint8, e1, e2 uint8) bool {
		a := pts[int(pi)%len(pts)].Alloc
		lo := int(e1%50) + 1
		hi := lo + int(e2%50) + 1
		return m.JobTime(a, hi) > m.JobTime(a, lo) && m.JobCost(a, hi) > m.JobCost(a, lo)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestStragglerFactorMonotone: the BSP barrier penalty grows with n.
func TestStragglerFactorMonotone(t *testing.T) {
	prev := stragglerFactor(1)
	if prev != 1 {
		t.Fatalf("stragglerFactor(1) = %g, want 1", prev)
	}
	for _, n := range []int{2, 5, 10, 50, 200, 1000} {
		f := stragglerFactor(n)
		if f <= prev || f > 1.5 {
			t.Fatalf("stragglerFactor(%d) = %g, want in (%g, 1.5]", n, f, prev)
		}
		prev = f
	}
}

// TestParetoIdempotent: applying Pareto to a front returns it unchanged.
func TestParetoIdempotent(t *testing.T) {
	m := NewModel(workload.BERT())
	front := m.ParetoSet(DefaultGrid())
	again := Pareto(front)
	if len(again) != len(front) {
		t.Fatalf("Pareto not idempotent: %d -> %d", len(front), len(again))
	}
	for i := range front {
		if front[i].Alloc != again[i].Alloc {
			t.Fatal("Pareto reordered an existing front")
		}
	}
}

// TestParetoSubsetOfInput: every front member is one of the inputs.
func TestParetoSubsetOfInput(t *testing.T) {
	m := NewModel(workload.SVMHiggs())
	all := m.Enumerate(DefaultGrid())
	seen := make(map[Allocation]bool, len(all))
	for _, p := range all {
		seen[p.Alloc] = true
	}
	for _, f := range Pareto(all) {
		if !seen[f.Alloc] {
			t.Fatalf("front member %v not in the input set", f.Alloc)
		}
	}
}

// TestSyncShareGrowsWithModelSize: for a fixed allocation, bigger models
// spend a larger fraction of the epoch synchronizing.
func TestSyncShareGrowsWithModelSize(t *testing.T) {
	a := Allocation{N: 10, MemMB: 4096}
	share := func(w *workload.Model) float64 {
		m := NewModel(w)
		aa := a
		aa.Storage = 0 // S3
		return m.SyncTime(aa) / m.EpochTime(aa)
	}
	mn, rn, bert := share(workload.MobileNet()), share(workload.ResNet50()), share(workload.BERT())
	if !(bert > rn && rn > mn) {
		t.Errorf("sync share ordering violated: MN %.2f RN %.2f BERT %.2f", mn, rn, bert)
	}
}

// TestStartupEstimateCoversProvisioning: manually-scaled storage dominates
// the startup estimate when its provisioning is slower than the cold start.
func TestStartupEstimateCoversProvisioning(t *testing.T) {
	m := NewModel(workload.MobileNet())
	s3 := m.StartupEstimate(Allocation{N: 10, MemMB: 1769, Storage: 0})
	vm := m.StartupEstimate(Allocation{N: 10, MemMB: 1769, Storage: 3})
	if vm <= s3 {
		t.Errorf("VM-PS startup %g should exceed S3's %g (provisioning)", vm, s3)
	}
}
