package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
)

// macroKnobs is one macro-scenario configuration; zero fields mean the
// registered defaults.
type macroKnobs struct {
	Shards, Workers              int
	MacroTenants, MacroPerTenant int
	ChaosTenants, ChaosPerTenant int
	FleetTenants                 int
	TrafficTenants               int
	TrafficRate, TrafficHorizon  float64
	TrafficKind                  string
	Trace                        string // per-minute-count trace text for kind "trace"
}

// run executes scenario id under k, with a fresh collector when exports is
// set, and returns the rendered table plus the JSONL trace and metrics
// exports (empty without exports).
func (k macroKnobs) run(t *testing.T, id string, seed uint64, exports bool) (table, trace, metrics string) {
	t.Helper()
	SetMacroSharding(k.Shards, k.Workers)
	SetMacroScale(k.MacroTenants, k.MacroPerTenant)
	SetChaosScale(k.ChaosTenants, k.ChaosPerTenant)
	SetFleetScale(k.FleetTenants)
	SetTrafficScale(k.TrafficTenants, k.TrafficRate, k.TrafficHorizon)
	if err := SetTrafficKind(k.TrafficKind); err != nil {
		t.Fatal(err)
	}
	if err := SetTraceData([]byte(k.Trace)); err != nil {
		t.Fatal(err)
	}
	defer func() {
		SetMacroSharding(0, 0)
		SetMacroScale(0, 0)
		SetChaosScale(0, 0)
		SetFleetScale(0)
		SetTrafficScale(0, 0, 0)
		SetTrafficKind("")
		SetTraceData(nil)
	}()
	var c *obs.Collector
	if exports {
		c = obs.NewCollector()
		SetCollector(c)
		defer SetCollector(nil)
	}
	tab, err := Run(id, seed)
	if err != nil {
		t.Fatalf("%s seed=%d %+v: %v", id, seed, k, err)
	}
	if !exports {
		return tab.String(), "", ""
	}
	var tb, mb bytes.Buffer
	if err := obs.WriteJSONL(&tb, c.Scopes()); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteMetricsJSON(&mb, c.Scopes()); err != nil {
		t.Fatal(err)
	}
	return tab.String(), tb.String(), mb.String()
}

// macroScenarios lists the four tenant-harness scenarios with the one
// non-default configuration each is pinned at.
var macroScenarios = []struct {
	id  string
	alt macroKnobs
}{
	{"macro-day", macroKnobs{MacroTenants: 9, MacroPerTenant: 300, Shards: 2, Workers: 8}},
	{"macro-chaos", macroKnobs{ChaosTenants: 9, ChaosPerTenant: 300, Shards: 2, Workers: 8}},
	{"macro-fleet", macroKnobs{FleetTenants: 60, Shards: 1, Workers: 1}},
	{"macro-trace", macroKnobs{TrafficTenants: 9, TrafficRate: 1, TrafficHorizon: 300, Shards: 2, Workers: 8}},
}

// TestMacroDigests pins the four macro scenarios' output bytes — tables at
// the registered defaults and at one non-default configuration each,
// macro-trace's other arrival kinds, and the trace and metrics exports at
// default scale — to testdata/macro.digests. That file was generated once,
// by the per-scenario harnesses that preceded the shared tenant harness, and
// is never regenerated: any refactoring behind the scenarios must reproduce
// every byte.
func TestMacroDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale macro runs skipped in -short mode")
	}
	want := map[string]string{}
	f, err := os.Open("testdata/macro.digests")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if name, sum, ok := strings.Cut(sc.Text(), "\t"); ok {
			want[name] = sum
		}
	}
	checked := 0
	check := func(name, got string) {
		t.Helper()
		sum := sha256.Sum256([]byte(got))
		if h := hex.EncodeToString(sum[:]); h != want[name] {
			t.Errorf("%s: sha256 %s, pinned %q", name, h, want[name])
		}
		checked++
	}
	for _, seed := range []uint64{2023, 7} {
		for _, sc := range macroScenarios {
			table, trace, metrics := macroKnobs{}.run(t, sc.id, seed, true)
			check(fmt.Sprintf("%s seed=%d default table", sc.id, seed), table)
			check(fmt.Sprintf("%s seed=%d default trace.jsonl", sc.id, seed), trace)
			check(fmt.Sprintf("%s seed=%d default metrics.json", sc.id, seed), metrics)
			table, _, _ = sc.alt.run(t, sc.id, seed, false)
			check(fmt.Sprintf("%s seed=%d alt table", sc.id, seed), table)
		}
		for _, kind := range []string{"poisson", "bursty", "trace"} {
			k := macroKnobs{TrafficTenants: 6, TrafficRate: 1, TrafficHorizon: 240, TrafficKind: kind,
				Trace: "12,3,0,7,1,9\n0,8,2,4,6,0\n5,5,5,5,5,5\n"}
			table, _, _ := k.run(t, "macro-trace", seed, false)
			check(fmt.Sprintf("macro-trace seed=%d kind=%s table", seed, kind), table)
		}
	}
	if checked != len(want) {
		t.Errorf("checked %d digests, testdata/macro.digests pins %d", checked, len(want))
	}
}
