package cost

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/storage"
	"repro/internal/workload"
)

func lrModel() *Model   { return NewModel(workload.LRHiggs()) }
func mnModel() *Model   { return NewModel(workload.MobileNet()) }
func bertModel() *Model { return NewModel(workload.BERT()) }

func TestFeasibility(t *testing.T) {
	m := lrModel()
	cases := []struct {
		a    Allocation
		want bool
	}{
		{Allocation{N: 10, MemMB: 1769, Storage: storage.S3}, true},
		{Allocation{N: 0, MemMB: 1769, Storage: storage.S3}, false},       // no functions
		{Allocation{N: 5000, MemMB: 1769, Storage: storage.S3}, false},    // over concurrency cap
		{Allocation{N: 10, MemMB: 64, Storage: storage.S3}, false},        // invalid memory
		{Allocation{N: 1, MemMB: 1769, Storage: storage.S3}, false},       // 2.4GB partition won't fit
		{Allocation{N: 10, MemMB: 1769, Storage: storage.DynamoDB}, true}, // small model fits Dynamo
	}
	for _, c := range cases {
		if got := m.Feasible(c.a); got != c.want {
			t.Errorf("Feasible(%v) = %v, want %v", c.a, got, c.want)
		}
	}
	// MobileNet (12MB) exceeds DynamoDB's 400KB item limit.
	if mnModel().Feasible(Allocation{N: 10, MemMB: 1769, Storage: storage.DynamoDB}) {
		t.Error("MobileNet on DynamoDB must be infeasible (N/A in Table II)")
	}
}

func TestEpochTimeComponents(t *testing.T) {
	m := lrModel()
	a := Allocation{N: 10, MemMB: 1769, Storage: storage.S3}
	// k = 11M / (10 * 10k) = 110 iterations.
	if k := m.Iterations(a); k != 110 {
		t.Fatalf("k = %d, want 110", k)
	}
	// Compute: partition (D/10) at UBase (1 vCPU at 1769MB), inflated by
	// the expected straggler penalty for n=10.
	straggler := math.Exp(m.StragglerSigma * math.Sqrt(2*math.Log(10)))
	wantCompute := m.Workload.Dataset.SizeMB / 10 * m.Workload.UBase * straggler
	if got := m.ComputeTime(a); math.Abs(got-wantCompute) > 1e-9 {
		t.Errorf("ComputeTime = %g, want %g", got, wantCompute)
	}
	// Disabling the correction recovers the bare Eq. 2 term. (A fresh model:
	// Model embeds its table cache and must not be copied.)
	noStrag := lrModel()
	noStrag.StragglerSigma = 0
	if got, want := noStrag.ComputeTime(a), m.Workload.Dataset.SizeMB/10*m.Workload.UBase; math.Abs(got-want) > 1e-9 {
		t.Errorf("bare ComputeTime = %g, want %g", got, want)
	}
	// Sync: 110 iterations of the S3 (3n-2) pattern.
	svc := m.Service(storage.S3)
	wantSync := 110 * svc.SyncTime(10, m.Workload.ParamsMB)
	if got := m.SyncTime(a); math.Abs(got-wantSync) > 1e-9 {
		t.Errorf("SyncTime = %g, want %g", got, wantSync)
	}
	if got := m.EpochTime(a); math.Abs(got-(wantCompute+wantSync)) > 1e-9 {
		t.Errorf("EpochTime = %g, want %g", got, wantCompute+wantSync)
	}
	// Load: partition at B_S3.
	if got, want := m.LoadTime(a), m.Workload.Dataset.SizeMB/10/80; math.Abs(got-want) > 1e-9 {
		t.Errorf("LoadTime = %g, want %g", got, want)
	}
}

func TestMoreMemoryFasterEpochUntilCap(t *testing.T) {
	m := mnModel()
	base := Allocation{N: 10, MemMB: 1024, Storage: storage.S3}
	faster := Allocation{N: 10, MemMB: 4096, Storage: storage.S3}
	if m.EpochTime(faster) >= m.EpochTime(base) {
		t.Error("more memory should shorten the epoch")
	}
}

func TestMoreFunctionsShiftTimeToSync(t *testing.T) {
	m := bertModel()
	few := Allocation{N: 5, MemMB: 4096, Storage: storage.S3}
	many := Allocation{N: 50, MemMB: 4096, Storage: storage.S3}
	if m.ComputeTime(many) >= m.ComputeTime(few) {
		t.Error("more functions should cut per-function compute")
	}
	fewSyncPerIter := m.Service(storage.S3).SyncTime(5, 340)
	manySyncPerIter := m.Service(storage.S3).SyncTime(50, 340)
	if manySyncPerIter <= fewSyncPerIter {
		t.Error("per-iteration sync must grow with function count")
	}
}

func TestVMPSSyncsFasterThanS3ForBigModels(t *testing.T) {
	m := bertModel()
	s3 := Allocation{N: 10, MemMB: 4096, Storage: storage.S3}
	vm := Allocation{N: 10, MemMB: 4096, Storage: storage.VMPS}
	if m.SyncTime(vm) >= m.SyncTime(s3) {
		t.Error("VM-PS should synchronize a 340MB model faster than S3")
	}
}

func TestStorageCostModels(t *testing.T) {
	m := lrModel()
	s3 := Allocation{N: 10, MemMB: 1769, Storage: storage.S3}
	vm := Allocation{N: 10, MemMB: 1769, Storage: storage.VMPS}
	if m.StorageEpochCost(s3) <= 0 {
		t.Error("S3 epoch storage cost should be positive (request charges)")
	}
	if m.StorageEpochCost(vm) <= 0 {
		t.Error("VM-PS epoch storage cost should be positive (runtime charges)")
	}
	if got := m.EpochCost(s3); got <= m.FunctionEpochCost(s3) {
		t.Error("EpochCost should include storage")
	}
}

func TestJobCostIncludesInvocationAndLoad(t *testing.T) {
	m := lrModel()
	a := Allocation{N: 10, MemMB: 1769, Storage: storage.S3}
	oneEpoch := m.JobCost(a, 1)
	perEpoch := m.EpochCost(a)
	if oneEpoch <= perEpoch {
		t.Error("JobCost must add invocation + load charges on top of the epoch bill")
	}
	// Job cost grows with epochs.
	if m.JobCost(a, 10) <= m.JobCost(a, 5) {
		t.Error("JobCost not monotone in epochs")
	}
}

func TestJobTimeComposition(t *testing.T) {
	m := lrModel()
	a := Allocation{N: 10, MemMB: 1769, Storage: storage.S3}
	t10 := m.JobTime(a, 10)
	t11 := m.JobTime(a, 11)
	if diff := t11 - t10; math.Abs(diff-m.EpochTime(a)) > 1e-9 {
		t.Errorf("JobTime epoch increment = %g, want EpochTime %g", diff, m.EpochTime(a))
	}
	if t10 <= 10*m.EpochTime(a) {
		t.Error("JobTime should include startup and load")
	}
}

func TestRuntimeChargedStorageBillsWholeJob(t *testing.T) {
	m := bertModel()
	a := Allocation{N: 10, MemMB: 4096, Storage: storage.VMPS}
	job := m.JobCost(a, 10)
	funcs := 10*m.FunctionEpochCost(a) + m.InvocationCost(a)
	vmBill := m.Service(storage.VMPS).RuntimeCost(m.JobTime(a, 10))
	if job < funcs+vmBill-1e-9 {
		t.Errorf("JobCost %g must cover functions %g + VM runtime %g", job, funcs, vmBill)
	}
}

func TestEnumerateSkipsInfeasible(t *testing.T) {
	m := mnModel()
	pts := m.Enumerate(DefaultGrid())
	if len(pts) == 0 {
		t.Fatal("no feasible allocations enumerated")
	}
	for _, p := range pts {
		if !m.Feasible(p.Alloc) {
			t.Errorf("enumerated infeasible allocation %v", p.Alloc)
		}
		if p.Alloc.Storage == storage.DynamoDB {
			t.Errorf("MobileNet enumeration must exclude DynamoDB, got %v", p.Alloc)
		}
	}
}

func TestParetoBoundaryProperties(t *testing.T) {
	m := lrModel()
	pts := m.Enumerate(DefaultGrid())
	front := Pareto(pts)
	if len(front) == 0 || len(front) > len(pts) {
		t.Fatalf("front size %d of %d points", len(front), len(pts))
	}
	// Sorted by time ascending, cost strictly descending.
	for i := 1; i < len(front); i++ {
		if front[i].Time <= front[i-1].Time {
			t.Errorf("front not strictly increasing in time at %d", i)
		}
		if front[i].Cost >= front[i-1].Cost {
			t.Errorf("front not strictly decreasing in cost at %d", i)
		}
	}
	// No point dominates a front member.
	for _, f := range front {
		for _, p := range pts {
			if p.Alloc != f.Alloc && Dominates(p, f) {
				t.Errorf("front member %v dominated by %v", f.Alloc, p.Alloc)
			}
		}
	}
	// Every non-front point is dominated by some front member.
	inFront := make(map[Allocation]bool, len(front))
	for _, f := range front {
		inFront[f.Alloc] = true
	}
	for _, p := range pts {
		if inFront[p.Alloc] {
			continue
		}
		dominated := false
		for _, f := range front {
			if Dominates(f, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Errorf("non-front point %v is not dominated", p.Alloc)
		}
	}
}

func TestParetoPrunesSubstantially(t *testing.T) {
	// Fig. 7 / §IV-G: the Pareto subset must be much smaller than Θ.
	m := lrModel()
	pts := m.Enumerate(DefaultGrid())
	front := Pareto(pts)
	if len(front)*3 > len(pts) {
		t.Errorf("Pareto front %d of %d points prunes too little", len(front), len(pts))
	}
}

func TestParetoEmptyAndSingle(t *testing.T) {
	if Pareto(nil) != nil {
		t.Error("Pareto(nil) should be nil")
	}
	one := []Point{{Time: 1, Cost: 1}}
	if got := Pareto(one); len(got) != 1 {
		t.Errorf("Pareto of single point = %d elements", len(got))
	}
}

// TestParetoSyntheticProperty checks the front of random point clouds — fine
// ones, and coarse ones full of ties in one coordinate and exact duplicates —
// against Dominates in both directions: sound (no point dominates a front
// member) and complete (every point left out is dominated by, or equal to, a
// front member).
func TestParetoSyntheticProperty(t *testing.T) {
	if err := quick.Check(func(raw []uint16, coarse bool) bool {
		if len(raw) < 2 {
			return true
		}
		mod := uint16(1000)
		if coarse {
			mod = 6
		}
		pts := make([]Point, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			pts = append(pts, Point{
				Alloc: Allocation{N: i},
				Time:  float64(raw[i]%mod) + 1,
				Cost:  float64(raw[i+1]%mod) + 1,
			})
		}
		front := Pareto(pts)
		onFront := make(map[Allocation]bool, len(front))
		for _, f := range front {
			onFront[f.Alloc] = true
			for _, p := range pts {
				if Dominates(p, f) {
					return false
				}
			}
		}
		for _, p := range pts {
			covered := onFront[p.Alloc]
			for _, f := range front {
				covered = covered || Dominates(f, p) || (f.Time == p.Time && f.Cost == p.Cost)
			}
			if !covered {
				return false
			}
		}
		return len(front) >= 1
	}, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestDominates(t *testing.T) {
	a := Point{Time: 1, Cost: 1}
	b := Point{Time: 2, Cost: 2}
	c := Point{Time: 1, Cost: 2}
	if !Dominates(a, b) || Dominates(b, a) {
		t.Error("strict domination failed")
	}
	if !Dominates(a, c) {
		t.Error("equal-in-one domination failed")
	}
	if Dominates(a, a) {
		t.Error("a point must not dominate itself")
	}
}
