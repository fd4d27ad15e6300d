package obs

import (
	"fmt"
	"sort"
	"sync"
)

// Collector merges many independent observers — one per experiment cell —
// into a single exportable trace. Each scope has exactly one writer (the
// goroutine running that cell), so events within a scope are recorded in
// that cell's deterministic order; the exporters then emit scopes in sorted
// name order. Together those two properties make the merged trace
// byte-identical regardless of how many worker goroutines the experiment
// engine ran, because nothing about the output depends on cross-scope
// interleaving.
//
// A nil *Collector is a valid disabled sink: Scope returns nil, which every
// obs method treats as no-op.
type Collector struct {
	mu     sync.Mutex
	scopes map[string]*Observer
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{scopes: make(map[string]*Observer)}
}

// Scope returns the observer for name, creating it on first use. Scope
// names must be unique per logical unit of work (e.g. "fig13/ce/budget=1.0")
// — two cells sharing a name would interleave nondeterministically.
func (c *Collector) Scope(name string) *Observer {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	o := c.scopes[name]
	if o == nil {
		o = New()
		c.scopes[name] = o
	}
	return o
}

// ScopeName builds the canonical indexed scope name "<prefix>/<unit><idx>"
// with idx zero-padded to the width of count-1 (e.g. ScopeName("macro-day",
// "t", 7, 64) = "macro-day/t07"). Exporters emit scopes in sorted name
// order, so zero-padding keeps the numeric order and the lexicographic
// order identical — unit 10 must not sort between unit 1 and unit 2 —
// which in turn keeps the merged export byte-identical however the units
// were sharded across workers.
func ScopeName(prefix, unit string, idx, count int) string {
	width := 1
	for n := count - 1; n >= 10; n /= 10 {
		width++
	}
	return fmt.Sprintf("%s/%s%0*d", prefix, unit, width, idx)
}

// NamedScope pairs a scope name with its observer for export.
type NamedScope struct {
	Name string
	Obs  *Observer
}

// Scopes returns the collector's scopes sorted by name.
func (c *Collector) Scopes() []NamedScope {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.scopes))
	for k := range c.scopes {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make([]NamedScope, 0, len(names))
	for _, n := range names {
		out = append(out, NamedScope{Name: n, Obs: c.scopes[n]})
	}
	return out
}
