package obs

import (
	"math"
	"testing"
)

// The histogram's documented invariants — exact-bound placement, the
// implicit overflow bucket, and bounds copied from the caller — were
// documented but untested. These tests pin them.

// TestHistogramExactBoundLandsInBucket: a value exactly equal to a bucket's
// upper bound counts in that bucket (v <= bound), not the next one.
func TestHistogramExactBoundLandsInBucket(t *testing.T) {
	h := NewHist([]float64{1, 10, 100})
	h.Observe(1)
	h.Observe(10)
	h.Observe(100)
	s := h.Snapshot()
	for i, want := range []uint64{1, 1, 1, 0} {
		if s.Counts[i] != want {
			t.Errorf("bucket %d = %d, want %d (exact-bound values must land in their own bucket)", i, s.Counts[i], want)
		}
	}
}

// TestHistogramOverflowBucket: values above every bound land in the
// implicit +Inf bucket, and the bucket layout has exactly len(bounds)+1
// slots.
func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHist([]float64{1, 2})
	h.Observe(2.0000001)
	h.Observe(1e18)
	h.Observe(math.Inf(1))
	s := h.Snapshot()
	if len(s.Counts) != len(s.Bounds)+1 {
		t.Fatalf("%d counts for %d bounds, want bounds+1", len(s.Counts), len(s.Bounds))
	}
	if over := s.Counts[len(s.Counts)-1]; over != 3 {
		t.Errorf("overflow bucket = %d, want 3", over)
	}
	if s.Total != 3 {
		t.Errorf("total = %d, want 3", s.Total)
	}
}

// TestNewHistCopiesBounds: the caller's slice must not alias the
// histogram's internal bounds.
func TestNewHistCopiesBounds(t *testing.T) {
	bounds := []float64{1, 2, 3}
	h := NewHist(bounds)
	bounds[0] = 99
	h.Observe(1)
	s := h.Snapshot()
	if s.Bounds[0] != 1 {
		t.Error("NewHist aliased the caller's bounds slice")
	}
	if s.Counts[0] != 1 {
		t.Error("mutating the caller's slice after NewHist changed bucketing")
	}
}
