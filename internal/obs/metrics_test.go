package obs

import (
	"reflect"
	"testing"
)

func TestCountersAndGauges(t *testing.T) {
	m := NewMetrics()
	m.Inc("invokes")
	m.Add("invokes", 2)
	m.Add("gbsec", 0.5)
	m.Set("warm", 3)
	m.Set("warm", 1) // last write wins
	m.SetMax("peak", 5)
	m.SetMax("peak", 2) // lower value must not regress the high-water mark
	m.SetMax("peak", 9)
	if got := m.Counter("invokes"); got != 3 {
		t.Fatalf("invokes = %v, want 3", got)
	}
	if got := m.Gauge("warm"); got != 1 {
		t.Fatalf("warm = %v, want 1", got)
	}
	if got := m.Gauge("peak"); got != 9 {
		t.Fatalf("peak = %v, want 9", got)
	}
	if got := m.Counter("absent"); got != 0 {
		t.Fatalf("absent counter = %v, want 0", got)
	}
}

func TestSnapshotSortedRegardlessOfInsertionOrder(t *testing.T) {
	a := NewMetrics()
	a.Inc("zeta")
	a.Inc("alpha")
	a.Set("mid", 1)
	b := NewMetrics()
	b.Set("mid", 1)
	b.Inc("alpha")
	b.Inc("zeta")
	sa, sb := a.Snapshot(), b.Snapshot()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("snapshots differ by insertion order:\n%+v\n%+v", sa, sb)
	}
	if sa.Counters[0].Name != "alpha" || sa.Counters[1].Name != "zeta" {
		t.Fatalf("counters not sorted: %+v", sa.Counters)
	}
}

func TestHistogramBuckets(t *testing.T) {
	lat := NewHist([]float64{1, 10, 100})
	lat.Observe(0.5)  // <=1
	lat.Observe(1)    // <=1 (bounds are inclusive upper edges)
	lat.Observe(5)    // <=10
	lat.Observe(1000) // overflow
	h := lat.Snapshot()
	wantCounts := []uint64{2, 1, 0, 1}
	if !reflect.DeepEqual(h.Counts, wantCounts) {
		t.Fatalf("counts = %v, want %v", h.Counts, wantCounts)
	}
	if h.Total != 4 || h.Sum != 1006.5 {
		t.Fatalf("total=%d sum=%v, want 4/1006.5", h.Total, h.Sum)
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	m := NewMetrics()
	m.Observe("h", 0.5) // auto-creates with defaultBuckets
	m.Observe("h", 0.5)
	s := m.Snapshot()
	h := s.Histograms[0].Hist
	if len(h.Bounds) != len(defaultBuckets) {
		t.Fatalf("bounds %v, want defaultBuckets", h.Bounds)
	}
	if h.Total != 2 {
		t.Fatalf("total = %d, want 2", h.Total)
	}
}
