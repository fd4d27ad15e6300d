package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// runCollected runs experiment id with a fresh collector at engine
// parallelism p and returns the rendered table plus the exported trace and
// metrics bytes.
func runCollected(t *testing.T, id string, seed uint64, p int) (table string, trace, metrics []byte) {
	t.Helper()
	c := obs.NewCollector()
	o := RunAll([]string{id}, seed, Config{Parallel: p, Collector: c})[0]
	if o.Err != nil {
		t.Fatalf("%s: %v", id, o.Err)
	}
	var tb, mb bytes.Buffer
	if err := obs.WriteTrace(&tb, "trace.json", c.Scopes()); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if err := obs.WriteMetricsJSON(&mb, c.Scopes()); err != nil {
		t.Fatalf("WriteMetricsJSON: %v", err)
	}
	return o.Table.String(), tb.Bytes(), mb.Bytes()
}

// The tentpole guarantee: the exported trace and metrics are byte-identical
// whether the experiment matrix ran serially or on eight workers, and
// collection does not perturb the table output.
func TestTraceBytesIdenticalAcrossParallelism(t *testing.T) {
	const id, seed = "fig21b", 7
	serialTab, serialTrace, serialMetrics := runCollected(t, id, seed, 1)
	parTab, parTrace, parMetrics := runCollected(t, id, seed, 8)

	if serialTab != parTab {
		t.Errorf("table output differs between -parallel 1 and 8")
	}
	if !bytes.Equal(serialTrace, parTrace) {
		t.Errorf("trace bytes differ between -parallel 1 and 8 (serial %d bytes, parallel %d bytes)",
			len(serialTrace), len(parTrace))
	}
	if !bytes.Equal(serialMetrics, parMetrics) {
		t.Errorf("metrics bytes differ between -parallel 1 and 8")
	}

	// Collection off entirely must not move the table either.
	off := RunAll([]string{id}, seed, Config{Parallel: 8})[0]
	if off.Err != nil {
		t.Fatalf("%s without collector: %v", id, off.Err)
	}
	if off.Table.String() != serialTab {
		t.Errorf("table output differs with tracing off vs on")
	}

	// The trace must actually contain the instrumented layers.
	for _, want := range []string{"fig21b/CE-scaling", `"cat":"scheduler"`, `"cat":"trainer"`, `"cat":"faas"`} {
		if !strings.Contains(string(serialTrace), want) {
			t.Errorf("trace missing %q", want)
		}
	}
}

// TestConcurrentRunsKeepCollectorsApart: a run is a function of (ids, seed,
// Config), so two RunAlls with their own collectors can share the process.
// Each one's tables, trace and metrics must equal what it exports alone.
func TestConcurrentRunsKeepCollectorsApart(t *testing.T) {
	export := func(ids []string, cfg Config) string {
		cfg.Collector = obs.NewCollector()
		var b bytes.Buffer
		for _, o := range RunAll(ids, 7, cfg) {
			if o.Err != nil {
				t.Errorf("%s: %v", o.ID, o.Err)
				return ""
			}
			b.WriteString(o.Table.String())
		}
		if err := obs.WriteJSONL(&b, cfg.Collector.Scopes()); err != nil {
			t.Error(err)
		}
		if err := obs.WriteMetricsJSON(&b, cfg.Collector.Scopes()); err != nil {
			t.Error(err)
		}
		return b.String()
	}
	runs := []struct {
		ids []string
		cfg Config
	}{
		{[]string{"fig21b", "fig21c"}, Config{Parallel: 4}},
		{[]string{"macro-fleet", "macro-trace"}, Config{Parallel: 2, FleetTenants: 12, TrafficTenants: 9, TrafficRate: 1, TrafficHorizon: 300}},
	}
	alone := make([]string, len(runs))
	for i, r := range runs {
		alone[i] = export(r.ids, r.cfg)
	}
	together := make([]string, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = export(r.ids, r.cfg)
		}()
	}
	wg.Wait()
	for i, r := range runs {
		if len(alone[i]) < 1000 {
			t.Fatalf("%v: export implausibly small: %d bytes", r.ids, len(alone[i]))
		}
		if together[i] != alone[i] {
			t.Errorf("%v: export differs when another RunAll shares the process (%d vs %d bytes)", r.ids, len(together[i]), len(alone[i]))
		}
	}
}
