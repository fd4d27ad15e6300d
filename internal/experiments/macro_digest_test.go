package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"
)

// macroScenarios lists the four tenant-harness scenarios with the one
// non-default configuration each is pinned at.
var macroScenarios = []struct {
	id  string
	alt Config
}{
	{"macro-day", Config{MacroTenants: 9, MacroPerTenant: 300, Shards: 2, Workers: 8}},
	{"macro-chaos", Config{ChaosTenants: 9, ChaosPerTenant: 300, Shards: 2, Workers: 8}},
	{"macro-fleet", Config{FleetTenants: 60, Shards: 1, Workers: 1}},
	{"macro-trace", Config{TrafficTenants: 9, TrafficRate: 1, TrafficHorizon: 300, Shards: 2, Workers: 8}},
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
			tab, trace, metrics := runMacro(t, sc.id, seed, Config{}, true)
			check(fmt.Sprintf("%s seed=%d default table", sc.id, seed), tab.String())
			check(fmt.Sprintf("%s seed=%d default trace.jsonl", sc.id, seed), trace)
			check(fmt.Sprintf("%s seed=%d default metrics.json", sc.id, seed), metrics)
			tab, _, _ = runMacro(t, sc.id, seed, sc.alt, false)
			check(fmt.Sprintf("%s seed=%d alt table", sc.id, seed), tab.String())
		}
		for _, kind := range []string{"poisson", "bursty", "trace"} {
			cfg := Config{TrafficTenants: 6, TrafficRate: 1, TrafficHorizon: 240, TrafficKind: kind,
				Trace: mustTrace(t, "12,3,0,7,1,9\n0,8,2,4,6,0\n5,5,5,5,5,5\n")}
			tab, _, _ := runMacro(t, "macro-trace", seed, cfg, false)
			check(fmt.Sprintf("macro-trace seed=%d kind=%s table", seed, kind), tab.String())
		}
	}
	if checked != len(want) {
		t.Errorf("checked %d digests, testdata/macro.digests pins %d", checked, len(want))
	}
}
