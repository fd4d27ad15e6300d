package faas

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// runWarmPoolProgram interprets prog as a sequence of platform operations —
// InvokeGroup (n 1–200, or 1 alone), ReleaseGroup, ReclaimWarm, KillSandboxes
// and RunUntil, over three memory sizes — applied alike to a Platform and to
// refPlatform, each on its own kernel from the same seed, under a cap the
// larger groups can hit. After every operation the two must agree exactly:
// results, warm counts, in-flight count, clock, the meter's bits and the
// sandboxes expired; and the Platform's kernel must hold one reclaim per
// live batch (checkBatches). Clock steps are multiples of 5 s up to 1,275 s, so
// runs cross the WarmTTL of earlier releases and often stop exactly on it.
func runWarmPoolProgram(t testing.TB, seed uint64, prog []byte) {
	t.Helper()
	const cap = 500
	sa, sb := sim.New(seed), sim.New(seed)
	a := NewOnShard(sa.Main(), sa.Stream("faas.startup"), cap)
	b := newRefPlatform(sb.Main(), sb.Stream("faas.startup"), cap)
	a.SetObserver(obs.New())
	b.obs = obs.New()
	sizes := [...]int{512, 1024, 1769}
	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		c := int(prog[0])
		prog = prog[1:]
		return c
	}
	for step := 0; len(prog) > 0; step++ {
		op, memMB := next()%8, sizes[next()%len(sizes)]
		switch op {
		case 0, 1, 2:
			n := 1 // opcode 2 admits a single function and reads no size byte
			if op < 2 {
				n = 1 + next()%200
			}
			ga, errA := a.InvokeGroup(n, memMB)
			gb, errB := b.InvokeGroup(n, memMB)
			if errA != errB || math.Float64bits(ga.StartDelay) != math.Float64bits(gb.StartDelay) || ga.Cold != gb.Cold {
				t.Fatalf("step %d: InvokeGroup(%d, %d) = %+v, %v; reference %+v, %v", step, n, memMB, ga, errA, gb, errB)
			}
		case 3, 4:
			if in := a.InFlight(); in > 0 {
				n, secs := 1+next()%in, float64(next())/4
				a.ReleaseGroup(n, memMB, secs)
				b.ReleaseGroup(n, memMB, secs)
			}
		case 5:
			n := next() % 64
			if ra, rb := a.ReclaimWarm(n), b.ReclaimWarm(n); ra != rb {
				t.Fatalf("step %d: ReclaimWarm(%d) = %d, reference %d", step, n, ra, rb)
			}
		case 6:
			n := next() % 16
			if ka, kb := a.KillSandboxes(n), b.KillSandboxes(n); ka != kb {
				t.Fatalf("step %d: KillSandboxes(%d) = %d, reference %d", step, n, ka, kb)
			}
		case 7:
			until := sa.Now() + sim.Time(5*next())
			sa.RunUntil(until)
			sb.RunUntil(until)
		}
		for _, m := range sizes {
			if wa, wb := a.WarmCount(m), b.WarmCount(m); wa != wb {
				t.Fatalf("step %d: WarmCount(%d) = %d, reference %d", step, m, wa, wb)
			}
		}
		ma, mb := a.Meter(), b.meter
		if a.WarmTotal() != b.warmTotal || a.InFlight() != b.inFlight || sa.Now() != sb.Now() ||
			ma.Invocations != mb.Invocations || !sameBits(ma.GBSeconds, mb.GBSeconds) ||
			!sameBits(ma.InvokeCost, mb.InvokeCost) || !sameBits(ma.ComputeCost, mb.ComputeCost) {
			t.Fatalf("step %d: warm %d, in flight %d, clock %v, meter %+v; reference %d, %d, %v, %+v",
				step, a.WarmTotal(), a.InFlight(), sa.Now(), ma, b.warmTotal, b.inFlight, sb.Now(), mb)
		}
		if ea, eb := a.obs.Stats().Counter("faas.warm_expired"), b.obs.Stats().Counter("faas.warm_expired"); ea != eb {
			t.Fatalf("step %d: %v sandboxes expired, reference %v", step, ea, eb)
		}
		checkBatches(t, sa, a, fmt.Sprint("step ", step))
	}
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// TestWarmPoolMatchesReference runs random programs, long enough to churn
// every pool through many TTLs, against the per-sandbox reference.
func TestWarmPoolMatchesReference(t *testing.T) {
	rng := sim.NewRand(38)
	for i := 0; i < 200; i++ {
		prog := make([]byte, 64+rng.Intn(2048))
		for j := range prog {
			prog[j] = byte(rng.Intn(256))
		}
		runWarmPoolProgram(t, uint64(i), prog)
	}
}

// FuzzWarmPool: any operation sequence leaves the batch pool and the
// per-sandbox reference in the same state, bit for bit.
func FuzzWarmPool(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 199, 3, 0, 199, 0, 0, 50, 7, 0, 60, 0, 0, 199, 7, 0, 200})
	f.Add(uint64(2), []byte{0, 1, 9, 2, 1, 3, 1, 0, 0, 5, 0, 30, 7, 0, 120, 2, 1, 6, 2, 3})
	f.Fuzz(func(t *testing.T, seed uint64, prog []byte) {
		runWarmPoolProgram(t, seed, prog)
	})
}
