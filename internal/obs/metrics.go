package obs

import (
	"sort"
	"sync"
)

// Metrics is a registry of named counters, gauges and fixed-bucket
// histograms. Snapshots are emitted in sorted-key order so serialized
// metrics are byte-identical run to run regardless of registration order.
// All methods are no-ops on a nil receiver.
type Metrics struct {
	mu     sync.Mutex
	counts map[string]float64
	gauges map[string]float64
	hists  map[string]*Hist
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counts: make(map[string]float64),
		gauges: make(map[string]float64),
		hists:  make(map[string]*Hist),
	}
}

// Add increments counter name by v.
func (m *Metrics) Add(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counts[name] += v
	m.mu.Unlock()
}

// Inc increments counter name by 1.
func (m *Metrics) Inc(name string) { m.Add(name, 1) }

// Set sets gauge name to v (last write wins).
func (m *Metrics) Set(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.gauges[name] = v
	m.mu.Unlock()
}

// SetMax raises gauge name to v if v exceeds its current value (high-water
// mark; an unset gauge takes v).
func (m *Metrics) SetMax(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if cur, ok := m.gauges[name]; !ok || v > cur {
		m.gauges[name] = v
	}
	m.mu.Unlock()
}

// Observe records v into histogram name, created on first use with
// defaultBuckets. A histogram with other bounds is a NewHist of its own.
func (m *Metrics) Observe(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	h := m.hists[name]
	if h == nil {
		h = NewHist(defaultBuckets)
		m.hists[name] = h
	}
	h.Observe(v)
	m.mu.Unlock()
}

// defaultBuckets cover the second-to-hours span the simulator operates in.
var defaultBuckets = []float64{0.001, 0.01, 0.1, 1, 10, 60, 300, 1800, 3600, 14400}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Total  uint64    `json:"total"`
}

// Snapshot is a deterministic point-in-time copy of the registry: each
// section's entries sorted by name.
type Snapshot struct {
	Counters   []NamedValue `json:"counters"`
	Gauges     []NamedValue `json:"gauges"`
	Histograms []NamedHist  `json:"histograms"`
}

// NamedValue is one counter or gauge in a snapshot.
type NamedValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// NamedHist is one histogram in a snapshot.
type NamedHist struct {
	Name string       `json:"name"`
	Hist HistSnapshot `json:"hist"`
}

// Snapshot returns the registry's current contents in sorted-name order.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var s Snapshot
	for _, k := range sortedKeys(m.counts) {
		s.Counters = append(s.Counters, NamedValue{Name: k, Value: m.counts[k]})
	}
	for _, k := range sortedKeys(m.gauges) {
		s.Gauges = append(s.Gauges, NamedValue{Name: k, Value: m.gauges[k]})
	}
	names := make([]string, 0, len(m.hists))
	for k := range m.hists {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		s.Histograms = append(s.Histograms, NamedHist{Name: k, Hist: m.hists[k].Snapshot()})
	}
	return s
}

// Counter returns the current value of counter name (0 if absent).
func (m *Metrics) Counter(name string) float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts[name]
}

// Gauge returns the current value of gauge name (0 if absent).
func (m *Metrics) Gauge(name string) float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gauges[name]
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
