package obs

import (
	"math"
	"testing"
)

func TestHistObserveAndQuantile(t *testing.T) {
	h := NewHist([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 10} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	// v <= bound semantics: 0.5,1 -> bucket 0; 1.5,2 -> bucket 1; 3 -> bucket 2;
	// 10 -> overflow.
	want := []uint64{2, 2, 1, 1}
	for i, c := range want {
		if snap.Counts[i] != c {
			t.Errorf("bucket %d = %d, want %d", i, snap.Counts[i], c)
		}
	}
	if h.Total() != 6 || h.Sum() != 18 {
		t.Errorf("total=%d sum=%g, want 6 and 18", h.Total(), h.Sum())
	}
	if got := h.Mean(); got != 3 {
		t.Errorf("mean=%g, want 3", got)
	}
	if got := h.Quantile(0.5); got != 2 {
		t.Errorf("p50=%g, want 2 (3rd of 6 observations is in the <=2 bucket)", got)
	}
	if got := h.Quantile(1); !math.IsInf(got, 1) {
		t.Errorf("p100=%g, want +Inf (overflow bucket occupied)", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q=0 -> %g, want first occupied bucket's bound 1", got)
	}
}

func TestHistQuantileEmpty(t *testing.T) {
	h := NewHist([]float64{1, 2})
	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", got)
	}
	if h.Mean() != 0 {
		t.Errorf("empty histogram mean = %g, want 0", h.Mean())
	}
}

func TestHistMerge(t *testing.T) {
	a, b := NewHist([]float64{1, 2}), NewHist([]float64{1, 2})
	a.Observe(0.5)
	b.Observe(1.5)
	b.Observe(9)
	a.Merge(b)
	snap := a.Snapshot()
	for i, want := range []uint64{1, 1, 1} {
		if snap.Counts[i] != want {
			t.Errorf("merged bucket %d = %d, want %d", i, snap.Counts[i], want)
		}
	}
	if a.Total() != 3 || a.Sum() != 11 {
		t.Errorf("merged total=%d sum=%g, want 3 and 11", a.Total(), a.Sum())
	}
}

func TestHistMergeLayoutMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Merge across bucket layouts did not panic")
		}
	}()
	NewHist([]float64{1, 2}).Merge(NewHist([]float64{1, 3}))
}

func TestHistObserveZeroAlloc(t *testing.T) {
	h := NewHist(LatencyBuckets)
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.3) }); n != 0 {
		t.Fatalf("Hist.Observe allocates %.1f times per call; streaming aggregation must be allocation-free", n)
	}
}

func TestJain(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 1},
		{[]float64{0, 0, 0}, 1},
		{[]float64{5, 5, 5, 5}, 1},
		{[]float64{1, 0, 0, 0}, 0.25},      // one tenant hogs: 1/n
		{[]float64{4, 2}, 36.0 / (2 * 20)}, // (4+2)^2 / (2*(16+4))
	}
	for _, c := range cases {
		if got := Jain(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Jain(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}
