package main

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func fixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestParseStderrTimingForms(t *testing.T) {
	times, errs := parseStderr(fixture(t, "timing.stderr"))
	want := []artifactTime{
		{"abl-asp", 19 * time.Millisecond},
		{"fig15", 2908 * time.Millisecond},
		{"fig19", 0},
		{"macro-day", time.Minute + 2003*time.Millisecond},
	}
	if !reflect.DeepEqual(times, want) {
		t.Errorf("timing lines = %v, want %v", times, want)
	}
	// "wrote event trace", "32 artifacts in", "peak RSS" and gctrace lines
	// are neither timing nor error lines.
	if len(errs) != 0 {
		t.Errorf("error lines = %q, want none", errs)
	}

	times, errs = parseStderr(fixture(t, "error.stderr"))
	if len(times) != 1 || len(errs) != 1 {
		t.Errorf("error.stderr: %d timing and %d error lines, want 1 and 1", len(times), len(errs))
	}
}

func TestParseGCTrace(t *testing.T) {
	cycles, peak := parseGCTrace(fixture(t, "timing.stderr"))
	if cycles != 4 || peak != 28 {
		t.Errorf("gctrace = %d cycles, %v MB peak; want 4, 28", cycles, peak)
	}
}

func TestParseTablesWithShortRows(t *testing.T) {
	tables, err := parseTables(fixture(t, "paper-model.stdout"))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, tb := range tables {
		ids = append(ids, tb.id)
	}
	if want := []string{"fig19", "fig19x", "fig2", "fig20"}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("tables = %v, want %v", ids, want)
	}
	fig19x := &tables[1]
	if got, ok := fig19x.cell(fig19x.rows[0], "sim JCT"); !ok || got != "1.37h" {
		t.Errorf(`fig19x first row "sim JCT" = %q, %v`, got, ok)
	}
	// The "infeasible" rows have two cells: no column can be read from them.
	if _, ok := fig19x.cell(fig19x.rows[2], "JCT err"); ok {
		t.Errorf("read a column from a short row %q", fig19x.rows[2])
	}
	// Cells keep their inner single spaces.
	if got := tables[0].rows[0][0]; got != "(n=10, mem=1769MB, S3)" {
		t.Errorf("fig19 first cell = %q", got)
	}
	if got := modelErrPct(tables); got != 2.7 {
		t.Errorf("model_err_pct = %v, want 2.7 (fig19x's 2.4 must not count, fig20's 2.7 must)", got)
	}
}

func TestParseTablesRejectsStrayText(t *testing.T) {
	if _, err := parseTables([]byte("panic: runtime error\n")); err == nil {
		t.Error("text outside a table was accepted")
	}
}

func TestCountersOfEveryMacroScenario(t *testing.T) {
	for _, tc := range []struct {
		file string
		want map[string]float64
	}{
		{"trace.stdout", map[string]float64{
			"experiments.artifacts": 1, "sim.events": 18458, "experiments.invocations": 3140,
			"sim.events_per_invocation": 18458.0 / 3140, "faas.denials": 14, "faas.retries": 1312,
			"faas.cold_starts": 356, "experiments.dropped": 14,
		}},
		{"day-chaos.stdout", map[string]float64{
			"experiments.artifacts": 2, "sim.events": 27949 + 5854, "experiments.invocations": 8*300 + 8*200,
			"sim.events_per_invocation": (27949.0 + 5854) / 4000, "faas.retries": 0, "faas.cold_starts": 109 + 326,
			"experiments.dropped": 0, "storage.ckpt_puts": 32 + 48, "fault.events_compiled": 26,
		}},
		{"fleet.stdout", map[string]float64{
			"experiments.artifacts": 1, "sim.events": 8244, "faas.denials": 31, "scheduler.decisions": 1663,
			"trainer.restarts": 294, "experiments.dropped": 1,
		}},
	} {
		tables, err := parseTables(fixture(t, tc.file))
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if got := countersOf(tables); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: counters = %v\nwant %v", tc.file, got, tc.want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.siftDown":                               "sim",
		"repro/internal/sim.(*Shard).drain":                         "sim",
		"repro/internal/experiments.(*invFrame).grant":              "experiments",
		"repro/internal/platform/simbackend.(*Backend).Run":         "other",
		"repro/internal/lint.run":                                   "other",
		"type:.eq.repro/internal/cost.Allocation":                   "cost",
		"slices.SortFunc[go.shape.[]repro/internal/cost.Point,...]": "other",
		"sort.Slice":              "other",
		"runtime.mallocgc":        "runtime",
		"runtime/internal/sys.X":  "runtime",
		"internal/runtime/maps.f": "runtime",
		"gcWriteBarrier":          "runtime",
		"math.archLog":            "std-math",
		"math/bits.Mul64":         "std-math",
		"fmt.(*pp).doPrintf":      "std-fmt",
		"strconv.FormatFloat":     "std-fmt",
		"main.run":                "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParsePprofTop(t *testing.T) {
	// pprof picks one unit per profile: seconds for the 3.7 s paper profile,
	// milliseconds for the 1 s trace profile. Both have inlined frames; in
	// both the per-layer rows must add up to the header's total.
	for _, tc := range []struct {
		file            string
		total           float64
		dominant, minor string
	}{
		{"pprof-top.txt", 3.71, "ml", "sim"},
		{"pprof-top-ms.txt", 0.98, "sim", "faas"},
	} {
		byLayer, total, err := parsePprofTop(fixture(t, tc.file))
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		sum := 0.0
		for _, l := range cpuLayers {
			sum += byLayer[l]
		}
		if len(byLayer) > len(cpuLayers) {
			t.Errorf("%s: layers outside cpuLayers: %v", tc.file, byLayer)
		}
		if math.Abs(total-tc.total) > 1e-9 || math.Abs(sum-total) > 0.01*total {
			t.Errorf("%s: layers sum to %.3fs, total %.3fs, want %.2fs", tc.file, sum, total, tc.total)
		}
		if byLayer[tc.dominant] < 0.7*total || byLayer[tc.minor] <= 0 || byLayer[tc.minor] > 0.1*total {
			t.Errorf("%s: %s %.2fs, %s %.2fs of %.2fs", tc.file, tc.dominant, byLayer[tc.dominant], tc.minor, byLayer[tc.minor], total)
		}
	}
	if _, _, err := parsePprofTop([]byte("not a profile\n")); err == nil {
		t.Error("output without a flat/flat% header was accepted")
	}
}

func TestPprofSeconds(t *testing.T) {
	for in, want := range map[string]float64{"0": 0, "10ms": 0.01, "2.87s": 2.87, "1.5mins": 90, "250us": 0.00025} {
		if got, err := pprofSeconds(in); err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("pprofSeconds(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}
