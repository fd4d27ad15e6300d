package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// populate records a fixed event/metric mix into a collector, optionally
// concurrently (one goroutine per scope) to model the experiment engine's
// worker pool.
func populate(c *Collector, parallel bool) {
	scopes := []string{"fig21b/siren", "fig21b/ce", "fig21b/cirrus"}
	var wg sync.WaitGroup
	for i, name := range scopes {
		record := func(i int, o *Observer) {
			o.Trace().SpanAt(float64(i), 1.5, "job", "trainer", "epoch", I("epoch", i), F("loss", 0.5/float64(i+1)))
			o.Trace().InstantAt(float64(i)+1.5, "sched", "scheduler", "decision", S("path", "hold"), B("restart", i == 1))
			o.Stats().Inc("epochs")
			o.Stats().Set("warm", float64(i))
			o.Stats().Observe("epoch_s", 1.5)
		}
		if parallel {
			wg.Add(1)
			go func(i int, name string) {
				defer wg.Done()
				record(i, c.Scope(name))
			}(i, name)
		} else {
			record(i, c.Scope(name))
		}
	}
	wg.Wait()
}

func render(t *testing.T, c *Collector) (chrome, jsonl, metrics string) {
	t.Helper()
	var cb, jb, mb bytes.Buffer
	if err := WriteChromeTrace(&cb, c.Scopes()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&jb, c.Scopes()); err != nil {
		t.Fatal(err)
	}
	if err := WriteMetricsJSON(&mb, c.Scopes()); err != nil {
		t.Fatal(err)
	}
	return cb.String(), jb.String(), mb.String()
}

// TestExportBytesIdenticalAcrossRunsAndConcurrency is the exporter-level
// statement of the acceptance criterion: same workload → same bytes,
// whether scopes were populated serially or from concurrent goroutines.
func TestExportBytesIdenticalAcrossRunsAndConcurrency(t *testing.T) {
	serial := NewCollector()
	populate(serial, false)
	c1, j1, m1 := render(t, serial)
	for i := 0; i < 3; i++ {
		par := NewCollector()
		populate(par, true)
		c2, j2, m2 := render(t, par)
		if c1 != c2 {
			t.Fatalf("chrome trace differs between serial and parallel population:\n%s\nvs\n%s", c1, c2)
		}
		if j1 != j2 {
			t.Fatalf("jsonl differs:\n%s\nvs\n%s", j1, j2)
		}
		if m1 != m2 {
			t.Fatalf("metrics differ:\n%s\nvs\n%s", m1, m2)
		}
	}
}

// TestChromeTraceIsValidAndStructured parses the emitted document the way
// Perfetto's legacy JSON importer does and checks the structural pieces:
// process/thread metadata, span/instant phases, microsecond timestamps.
func TestChromeTraceIsValidAndStructured(t *testing.T) {
	c := NewCollector()
	populate(c, false)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, c.Scopes()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var phases = map[string]int{}
	var sawProcessName, sawThreadName bool
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		if ph == "M" {
			switch ev["name"] {
			case "process_name":
				sawProcessName = true
			case "thread_name":
				sawThreadName = true
			}
		}
	}
	if !sawProcessName || !sawThreadName {
		t.Fatalf("missing metadata events: %v", phases)
	}
	if phases["X"] != 3 || phases["i"] != 3 {
		t.Fatalf("phase counts = %v, want 3 X and 3 i", phases)
	}
	// Spot-check the microsecond conversion: scope "fig21b/ce" (i=1)
	// records its span at t=1s → ts=1e6us.
	found := false
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" && ev["ts"] == 1e6 {
			found = true
			if ev["dur"] != 1.5e6 {
				t.Fatalf("dur = %v, want 1.5e6", ev["dur"])
			}
		}
	}
	if !found {
		t.Fatal("span at ts=1e6 not found (seconds→microseconds conversion broken?)")
	}
}

func TestJSONLOneObjectPerLine(t *testing.T) {
	c := NewCollector()
	populate(c, false)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, c.Scopes()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want 6:\n%s", len(lines), buf.String())
	}
	for _, ln := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(ln), &obj); err != nil {
			t.Fatalf("line not valid JSON: %v\n%s", err, ln)
		}
		for _, k := range []string{"scope", "t", "track", "cat", "name"} {
			if _, ok := obj[k]; !ok {
				t.Fatalf("line missing %q: %s", k, ln)
			}
		}
	}
	// Scopes must appear in sorted order: fig21b/ce before fig21b/cirrus
	// before fig21b/siren.
	ceIdx := strings.Index(buf.String(), "fig21b/ce\"")
	cirrusIdx := strings.Index(buf.String(), "fig21b/cirrus")
	sirenIdx := strings.Index(buf.String(), "fig21b/siren")
	if !(ceIdx < cirrusIdx && cirrusIdx < sirenIdx) {
		t.Fatalf("scopes not in sorted order: ce@%d cirrus@%d siren@%d", ceIdx, cirrusIdx, sirenIdx)
	}
}

func TestWriteTraceFormatByExtension(t *testing.T) {
	o := New()
	o.Trace().InstantAt(1, "trk", "cat", "ev")
	scopes := []NamedScope{{Name: "cescale", Obs: o}}
	var asJSONL, asChrome bytes.Buffer
	if err := WriteTrace(&asJSONL, "out.jsonl", scopes); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&asChrome, "out.json", scopes); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(asJSONL.String(), "{\"scope\":\"cescale\"") {
		t.Fatalf(".jsonl did not select JSONL: %s", asJSONL.String())
	}
	if !strings.HasPrefix(asChrome.String(), "{\"displayTimeUnit\"") {
		t.Fatalf(".json did not select chrome trace: %s", asChrome.String())
	}
}

func TestMetricsJSONShape(t *testing.T) {
	c := NewCollector()
	populate(c, false)
	var buf bytes.Buffer
	if err := WriteMetricsJSON(&buf, c.Scopes()); err != nil {
		t.Fatal(err)
	}
	var doc []struct {
		Scope   string   `json:"scope"`
		Metrics Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("metrics doc not valid JSON: %v", err)
	}
	if len(doc) != 3 || doc[0].Scope != "fig21b/ce" {
		t.Fatalf("unexpected doc shape: %+v", doc)
	}
	if len(doc[0].Metrics.Counters) != 1 || doc[0].Metrics.Counters[0].Name != "epochs" {
		t.Fatalf("counters: %+v", doc[0].Metrics.Counters)
	}
}
