package sim

import (
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 3 {
		t.Errorf("Now = %v, want 3", s.Now())
	}
}

func TestSimultaneousEventsFIFOWithinPriority(t *testing.T) {
	s := New(1)
	var order []int
	s.Schedule(5, func() { order = append(order, 0) })
	s.Schedule(5, func() { order = append(order, 1) })
	s.SchedulePriority(5, -1, func() { order = append(order, 2) })
	s.Run()
	want := []int{2, 0, 1}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestScheduleAfterAccumulates(t *testing.T) {
	s := New(1)
	var times []Time
	s.ScheduleAfter(1, func() {
		times = append(times, s.Now())
		s.ScheduleAfter(2.5, func() {
			times = append(times, s.Now())
		})
	})
	s.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3.5 {
		t.Fatalf("times = %v, want [1 3.5]", times)
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	ran := false
	e := s.Schedule(1, func() { ran = true })
	e.Cancel()
	if !e.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	s.Run()
	if ran {
		t.Fatal("canceled event ran")
	}
	if s.EventsFired() != 0 {
		t.Fatalf("EventsFired = %d, want 0", s.EventsFired())
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4} {
		at := at
		s.Schedule(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if s.Now() != 2.5 {
		t.Fatalf("Now = %v, want 2.5", s.Now())
	}
	s.RunUntil(10)
	if len(fired) != 4 {
		t.Fatalf("fired %d events, want 4", len(fired))
	}
}

func TestStep(t *testing.T) {
	s := New(1)
	n := 0
	s.Schedule(1, func() { n++ })
	s.Schedule(2, func() { n++ })
	if !s.Step() || n != 1 {
		t.Fatalf("after one step n = %d", n)
	}
	if !s.Step() || n != 2 {
		t.Fatalf("after two steps n = %d", n)
	}
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for past scheduling")
		}
	}()
	s := New(1)
	s.Schedule(5, func() {
		s.Schedule(4, func() {})
	})
	s.Run()
}

func TestScheduleNonFinitePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for NaN time")
		}
	}()
	s := New(1)
	s.Schedule(Time(math.NaN()), func() {})
}

func TestNamedRandStreamsIndependentAndStable(t *testing.T) {
	a1 := New(42).Stream("alpha")
	a2 := New(42).Stream("alpha")
	b := New(42).Stream("beta")
	var sawDiff bool
	for i := 0; i < 100; i++ {
		x, y, z := a1.Uint64(), a2.Uint64(), b.Uint64()
		if x != y {
			t.Fatalf("same stream diverged at %d: %d vs %d", i, x, y)
		}
		if x != z {
			sawDiff = true
		}
	}
	if !sawDiff {
		t.Fatal("streams alpha and beta produced identical sequences")
	}
}

// TestOwnedStreamMatchesRegistered: the stream an owner holds, Stream(name),
// draws what NewRand(seed ^ FNV-1a(name)) draws — the seed a named stream
// has always had — uniform, normal (spare included) and Exp, and each call
// starts the sequence afresh.
func TestOwnedStreamMatchesRegistered(t *testing.T) {
	s := New(2023)
	h := fnv.New64a()
	h.Write([]byte("tenant-0/loss"))
	ref := NewRand(2023 ^ h.Sum64())
	own := s.Stream("tenant-0/loss")
	for i := 0; i < 200; i++ {
		if a, b := ref.Uint64(), own.Uint64(); a != b {
			t.Fatalf("draw %d: Uint64 %d from NewRand, %d from Stream", i, a, b)
		}
		if a, b := ref.NormFloat64(), own.NormFloat64(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("draw %d: NormFloat64 %v from NewRand, %v from Stream", i, a, b)
		}
		if a, b := ref.Exp(2), own.Exp(2); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("draw %d: Exp %v from NewRand, %v from Stream", i, a, b)
		}
	}
	fresh, other := s.Stream("tenant-0/loss"), New(2023).Stream("tenant-0/loss")
	if fresh.Uint64() != other.Uint64() {
		t.Fatal("a second Stream call did not start the sequence afresh")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(3)
	if err := quick.Check(func(_ int) bool {
		f := r.Float64()
		return f >= 0 && f < 1
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRand(9)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("variance = %g, want ~1", variance)
	}
}

func TestLogNormalMedianNearOne(t *testing.T) {
	r := NewRand(11)
	const n = 100001
	vals := make([]float64, n)
	below := 0
	for i := range vals {
		vals[i] = r.LogNormal(0, 0.3)
		if vals[i] < 1 {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.47 || frac > 0.53 {
		t.Errorf("fraction below 1 = %g, want ~0.5", frac)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRand(13)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(2.5)
	}
	mean := sum / n
	if math.Abs(mean-2.5) > 0.05 {
		t.Errorf("mean = %g, want ~2.5", mean)
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRand(17)
	for i := 0; i < 1000; i++ {
		j := r.Jitter(0.1)
		if j < 0.9 || j > 1.1 {
			t.Fatalf("Jitter(0.1) = %g out of [0.9, 1.1]", j)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(19)
	if err := quick.Check(func(raw uint8) bool {
		n := int(raw%32) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEventsInterleaveDeterministically(t *testing.T) {
	run := func() []Time {
		s := New(5)
		rng := s.Stream("tick")
		var trace []Time
		var tick func()
		tick = func() {
			trace = append(trace, s.Now())
			if s.Now() < 10 {
				s.ScheduleAfter(1+rng.Float64(), tick)
			}
		}
		s.ScheduleAfter(0, tick)
		s.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic trace at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
