package experiments

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// runMacro executes scenario id under cfg — with a fresh collector when
// exports is set — and returns the table plus the JSONL trace and metrics
// exports (empty without exports).
func runMacro(t *testing.T, id string, seed uint64, cfg Config, exports bool) (tab *Table, trace, metrics string) {
	t.Helper()
	if exports {
		cfg.Collector = obs.NewCollector()
	}
	o := RunAll([]string{id}, seed, cfg)[0]
	if o.Err != nil {
		t.Fatalf("%s seed=%d %+v: %v", id, seed, cfg, o.Err)
	}
	if !exports {
		return o.Table, "", ""
	}
	var tb, mb bytes.Buffer
	if err := obs.WriteJSONL(&tb, cfg.Collector.Scopes()); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteMetricsJSON(&mb, cfg.Collector.Scopes()); err != nil {
		t.Fatal(err)
	}
	return o.Table, tb.String(), mb.String()
}

// mustTrace parses per-minute-count trace text for Config.Trace.
func mustTrace(t *testing.T, text string) traffic.Trace {
	t.Helper()
	tr, err := traffic.ParseTrace(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// totalCell returns the TOTAL row's cell under header.
func totalCell(t *testing.T, tab *Table, header string) string {
	t.Helper()
	for i, h := range tab.Headers {
		if h == header {
			return tab.Rows[len(tab.Rows)-1][i]
		}
	}
	t.Fatalf("%s: no column %q in %v", tab.ID, header, tab.Headers)
	return ""
}

// kernel is one (shards, workers) setting of the sharded kernel.
type kernel struct{ shards, workers int }

// fullGrid is every kernel setting the acceptance matrix covers, compared
// against the single-queue reference {1, 1}.
var fullGrid = []kernel{{1, 8}, {2, 1}, {2, 8}, {8, 1}, {8, 8}}

// macroMatrix is the determinism matrix of the tenant harness: one row per
// (scenario, population). Every row's table at each kernel setting must
// equal the {1, 1} table byte for byte — the merge order of every
// simultaneous event pair is pinned by globally unique priorities, compiled
// fault events and tenant-private error gates included. Rows with exports
// also compare the trace and metrics exports (which carry every platform
// event and every controller's per-epoch decision log), each run with a
// collector of its own, so every row runs in parallel.
// Rows marked long are the check sizes (default populations, 1000
// controllers, 48 x 1/s x 900 s, a trace-file replay); `make shard-check`
// runs them, -short skips them.
var macroMatrix = []struct {
	name    string
	id      string
	seed    uint64
	cfg     Config
	trace   string // per-minute-count text parsed into cfg.Trace
	grid    []kernel
	exports bool
	long    bool
	// otherSeed, when set, must produce a different table: the scenario has
	// not collapsed into a constant.
	otherSeed uint64
	// noteHas must appear in the table's note; totals are TOTAL-row cells.
	noteHas string
	totals  map[string]string
}{
	{name: "macro-day/9x300", id: "macro-day", seed: 11, grid: fullGrid, exports: true,
		cfg: Config{MacroTenants: 9, MacroPerTenant: 300}},
	{name: "macro-chaos/9x300", id: "macro-chaos", seed: 11, grid: fullGrid, exports: true,
		cfg: Config{ChaosTenants: 9, ChaosPerTenant: 300}},
	{name: "macro-fleet/12", id: "macro-fleet", seed: 11, grid: fullGrid, exports: true,
		cfg: Config{FleetTenants: 12}},
	{name: "macro-trace/9x1x300", id: "macro-trace", seed: 11, grid: fullGrid, exports: true,
		cfg: Config{TrafficTenants: 9, TrafficRate: 1, TrafficHorizon: 300}},

	// Every cursor kind is pinned, not just the default diurnal.
	{name: "macro-trace/poisson", id: "macro-trace", seed: 3, grid: []kernel{{8, 8}}, noteHas: "kind=poisson",
		cfg: Config{TrafficTenants: 6, TrafficRate: 1, TrafficHorizon: 240, TrafficKind: "poisson"}},
	{name: "macro-trace/bursty", id: "macro-trace", seed: 3, grid: []kernel{{8, 8}}, noteHas: "kind=bursty",
		cfg: Config{TrafficTenants: 6, TrafficRate: 1, TrafficHorizon: 240, TrafficKind: "bursty"}},
	{name: "macro-trace/replay", id: "macro-trace", seed: 3, grid: []kernel{{8, 8}}, noteHas: "kind=trace",
		cfg: Config{TrafficTenants: 6, TrafficRate: 1, TrafficHorizon: 240, TrafficKind: "trace"}, trace: "3,0,9,2\n1,5,0,4\n"},
	// Replay neither drops nor invents arrivals: the arrivals column is the
	// sum of both trace rows.
	{name: "macro-trace/replay-counts", id: "macro-trace", seed: 5, totals: map[string]string{"arrivals": "18"},
		cfg: Config{TrafficTenants: 2, TrafficRate: 1, TrafficHorizon: 600, TrafficKind: "trace"}, trace: "2,7,0,3\n5,0,0,1\n"},

	{name: "macro-day/seeds", id: "macro-day", seed: 1, otherSeed: 2, cfg: Config{MacroTenants: 4, MacroPerTenant: 120}},
	{name: "macro-chaos/seeds", id: "macro-chaos", seed: 1, otherSeed: 2, cfg: Config{ChaosTenants: 4, ChaosPerTenant: 120}},
	{name: "macro-fleet/seeds", id: "macro-fleet", seed: 1, otherSeed: 2, cfg: Config{FleetTenants: 9}},
	{name: "macro-trace/seeds", id: "macro-trace", seed: 1, otherSeed: 2,
		cfg: Config{TrafficTenants: 4, TrafficRate: 1, TrafficHorizon: 240}},

	{name: "macro-day/default", id: "macro-day", seed: 2023, long: true, grid: []kernel{{8, 8}}},
	{name: "macro-chaos/default", id: "macro-chaos", seed: 2023, long: true, grid: []kernel{{2, 8}, {8, 1}, {8, 8}}},
	{name: "macro-fleet/1000", id: "macro-fleet", seed: 2023, long: true, grid: []kernel{{1, 8}, {8, 1}, {8, 8}},
		cfg: Config{FleetTenants: 1000}},
	{name: "macro-trace/48x1x900", id: "macro-trace", seed: 2023, long: true, grid: []kernel{{1, 8}, {2, 8}, {8, 1}, {8, 8}},
		cfg: Config{TrafficTenants: 48, TrafficRate: 1, TrafficHorizon: 900}},
	{name: "macro-trace/replay-6", id: "macro-trace", seed: 2023, long: true, grid: []kernel{{8, 8}},
		cfg: Config{TrafficTenants: 6, TrafficKind: "trace"}, trace: "12,3,0,7,1,9\n0,8,2,4,6,0\n5,5,5,5,5,5\n"},
}

func TestMacroMatrix(t *testing.T) {
	for _, row := range macroMatrix {
		t.Run(row.name, func(t *testing.T) {
			if row.long && testing.Short() {
				t.Skip("check-sized macro run skipped in -short mode")
			}
			t.Parallel()
			at := func(k kernel, seed uint64) (*Table, string, string) {
				cfg := row.cfg
				cfg.Shards, cfg.Workers = k.shards, k.workers
				if row.trace != "" {
					cfg.Trace = mustTrace(t, row.trace)
				}
				return runMacro(t, row.id, seed, cfg, row.exports)
			}
			ref, refTrace, refMetrics := at(kernel{1, 1}, row.seed)
			refTab := ref.String()
			if row.exports && len(refTrace) < 100 {
				t.Fatalf("reference trace implausibly small: %d bytes", len(refTrace))
			}
			for _, k := range row.grid {
				tab, trace, metrics := at(k, row.seed)
				if tab.String() != refTab {
					t.Errorf("%+v: table diverges from shards=1,workers=1:\n--- ref\n%s\n--- got\n%s", k, refTab, tab)
				}
				if trace != refTrace {
					t.Errorf("%+v: trace export diverges (%d vs %d bytes)", k, len(refTrace), len(trace))
				}
				if metrics != refMetrics {
					t.Errorf("%+v: metrics export diverges", k)
				}
			}
			if row.otherSeed != 0 {
				if other, _, _ := at(kernel{1, 1}, row.otherSeed); other.String() == refTab {
					t.Errorf("output identical across seeds %d and %d", row.seed, row.otherSeed)
				}
			}
			if !strings.Contains(refTab, row.noteHas) {
				t.Errorf("note does not record %q:\n%s", row.noteHas, refTab)
			}
			for header, want := range row.totals {
				if got := totalCell(t, ref, header); got != want {
					t.Errorf("TOTAL %s = %s, want %s", header, got, want)
				}
			}
		})
	}
}

// TestMacroScenariosRunConcurrently is the cebench -parallel gate at the
// check sizes: the four scenarios run side by side on the engine's worker
// pool, which is possible only because their configuration travels in a
// value, and every table must equal its serial run.
func TestMacroScenariosRunConcurrently(t *testing.T) {
	if testing.Short() {
		t.Skip("check-sized macro runs skipped in -short mode")
	}
	ids := []string{"macro-day", "macro-chaos", "macro-fleet", "macro-trace"}
	cfg := Config{FleetTenants: 1000, TrafficTenants: 48, TrafficRate: 1, TrafficHorizon: 900}
	cfg.Parallel = 1
	serial := RunAll(ids, 2023, cfg)
	cfg.Parallel = 8
	for i, o := range RunAll(ids, 2023, cfg) {
		if o.Err != nil || serial[i].Err != nil {
			t.Fatalf("%s: %v / %v", o.ID, serial[i].Err, o.Err)
		}
		if o.Table.String() != serial[i].Table.String() {
			t.Errorf("%s: table differs between -parallel 1 and -parallel 8", o.ID)
		}
	}
}

var noteNum = regexp.MustCompile(`(denials|retries|windows|invocations|events)=([0-9]+)`)

// TestMacroDefaultsExerciseEveryPath checks the registered-default runs
// genuinely stress what each scenario exists for: the listed TOTAL cells
// must be nonzero, plus what only that scenario can assert.
func TestMacroDefaultsExerciseEveryPath(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale macro runs skipped in -short mode")
	}
	atoi := func(t *testing.T, tab *Table, header string) int {
		t.Helper()
		v, err := strconv.Atoi(totalCell(t, tab, header))
		if err != nil {
			t.Fatalf("TOTAL %s: %v", header, err)
		}
		return v
	}
	for _, sc := range []struct {
		id      string
		nonzero []string // TOTAL cells: the path behind each must have fired
		extra   func(t *testing.T, tab *Table)
	}{
		// Concurrency caps bind (retried), the coordinator's feedback loop
		// fires (shed), and both start kinds occur.
		{"macro-day", []string{"completed", "retried", "shed", "cold"}, nil},
		// Every fault path fires, and kills re-admit their victims: nothing
		// may be lost from the arrival ledger.
		{"macro-chaos", []string{"completed", "killed", "reclaimed", "shed", "ckpt_retry", "cold"},
			func(t *testing.T, tab *Table) {
				if got := atoi(t, tab, "completed") + atoi(t, tab, "shed") + atoi(t, tab, "dropped"); got != 24*1000 {
					t.Errorf("arrival ledger: completed+shed+dropped = %d, want %d", got, 24*1000)
				}
			}},
		// Most tenants converge, the schedulers restart through the shared
		// account, every tenant decides per epoch, constraints are met.
		{"macro-fleet", []string{"restarts", "budget-met", "qos-met"},
			func(t *testing.T, tab *Table) {
				tenants := atoi(t, tab, "tenants")
				if conv := atoi(t, tab, "converged"); conv < tenants/2 {
					t.Errorf("only %d/%d tenants converged", conv, tenants)
				}
				if dec := atoi(t, tab, "decisions"); dec < tenants*4 {
					t.Errorf("implausibly few decisions (%d) for %d tenants", dec, tenants)
				}
			}},
		// The shared cap binds (retries), fairness windows run, and the
		// latency quantiles are populated.
		{"macro-trace", []string{"completed", "cold", "p50s", "p95s"},
			func(t *testing.T, tab *Table) {
				nums := map[string]int{}
				for _, m := range noteNum.FindAllStringSubmatch(tab.Notes, -1) {
					nums[m[1]], _ = strconv.Atoi(m[2])
				}
				if nums["retries"] == 0 {
					t.Error("no retries: the shared concurrency cap never bound")
				}
				if nums["windows"] < 10 {
					t.Errorf("only %d fairness windows over a 1800s horizon", nums["windows"])
				}
				if nums["invocations"] < 10000 {
					t.Errorf("only %d invocations at the default scale", nums["invocations"])
				}
				if !strings.Contains(tab.Notes, "jain mean=") {
					t.Error("note missing the fairness summary")
				}
			}},
	} {
		t.Run(sc.id, func(t *testing.T) {
			t.Parallel()
			tab, _, _ := runMacro(t, sc.id, 7, Config{}, false)
			for _, header := range sc.nonzero {
				if totalCell(t, tab, header) == "0" {
					t.Errorf("TOTAL %s is 0: that path never fired", header)
				}
			}
			if sc.extra != nil {
				sc.extra(t, tab)
			}
		})
	}
}

// TestConfigValidateRejectsBadInput: flag-shaped garbage is an error from
// Validate and per outcome from RunAll — never a panic inside
// a traffic cursor, and never a silently defaulted population.
func TestConfigValidateRejectsBadInput(t *testing.T) {
	ids := []string{"macro-day", "macro-chaos", "macro-fleet", "macro-trace"}
	for name, cfg := range map[string]Config{
		"rate NaN":            {TrafficRate: math.NaN()},
		"horizon +Inf":        {TrafficHorizon: math.Inf(1)},
		"rate negative":       {TrafficRate: -2},
		"horizon negative":    {TrafficHorizon: -60},
		"tenants negative":    {MacroTenants: -5},
		"per-tenant negative": {ChaosPerTenant: -1},
		"fleet negative":      {FleetTenants: -7},
		"streams negative":    {TrafficTenants: -2},
		"shards negative":     {Shards: -3},
		"workers negative":    {Workers: -1},
		"parallel negative":   {Parallel: -1},
		"unknown kind":        {TrafficKind: "lumpy"},
		"trace without rows":  {TrafficKind: "trace"},
	} {
		t.Run(name, func(t *testing.T) {
			if err := cfg.Validate(); err == nil {
				t.Error("Validate accepted the configuration")
			}
			for _, o := range RunAll(ids, 1, cfg) {
				if o.Err == nil || o.Table != nil {
					t.Errorf("%s ran under an invalid configuration (err=%v)", o.ID, o.Err)
				}
			}
		})
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero Config rejected: %v", err)
	}
}

// mallocsDuring counts the heap allocations made while fn runs.
func mallocsDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestAdmissionPipelineZeroAlloc is the zero-allocation gate of the shared
// account: pump -> request -> admit (retried and denied at the cap) -> grant ->
// done -> release recycles pooled frames and closures bound once, so what a
// run allocates does not grow with its arrivals. Two horizons of one
// population are compared in mallocs; set-up cancels out, and what is left
// per extra arrival is the per-minute fairness gather (about 0.03) — one
// closure per arrival anywhere on the pipeline reads 1 or more.
func TestAdmissionPipelineZeroAlloc(t *testing.T) {
	run := func(horizon float64) (mallocs uint64, arrivals int) {
		var tab *Table
		var err error
		mallocs = mallocsDuring(func() {
			tab, err = runMacroTrace(7, Config{TrafficTenants: 16, TrafficRate: 1.6, TrafficHorizon: horizon})
		})
		if err != nil {
			t.Fatal(err)
		}
		if totalCell(t, tab, "dropped") == "0" {
			t.Errorf("horizon %g: no arrival was dropped, so the retry and denial paths went unmeasured", horizon)
		}
		if arrivals, err = strconv.Atoi(totalCell(t, tab, "arrivals")); err != nil {
			t.Fatal(err)
		}
		return mallocs, arrivals
	}
	shortM, shortN := run(600)
	longM, longN := run(2400)
	if longN-shortN < 25000 {
		t.Fatalf("only %d extra arrivals between the horizons, want >= 25000", longN-shortN)
	}
	perArrival := (float64(longM) - float64(shortM)) / float64(longN-shortN)
	t.Logf("%d mallocs for %d arrivals, %d for %d: %.3f per extra arrival", shortM, shortN, longM, longN, perArrival)
	if perArrival >= 0.25 {
		t.Errorf("the admission pipeline allocates %.3f times per arrival, want < 0.25", perArrival)
	}
}

// TestOpenTenantZeroAlloc is the zero-allocation gate of the open-loop
// tenant: arrive -> try (denied at the tenant's cap) -> retry -> done | drop |
// kill runs on pooled call frames with closures bound once, a denial is a
// bare sentinel, and the per-minute report/absorb pair is bound per tenant.
// Same method as the shared account's gate: two arrival counts of one
// population compared in mallocs. What is left per extra arrival is the
// checkpoint put every 32 or 64 completions (about 0.07); one closure per
// arrival, retry or completion, or one formatted denial, reads 1 or more.
func TestOpenTenantZeroAlloc(t *testing.T) {
	for _, sc := range []struct {
		id      string
		run     func(seed uint64, cfg Config) (*Table, error)
		cfg     func(perTenant int) Config
		nonzero []string // TOTAL cells: the path behind each is inside the measurement
	}{
		{"macro-day", runMacroDay, func(n int) Config { return Config{MacroTenants: 16, MacroPerTenant: n} },
			[]string{"retried", "dropped"}},
		{"macro-chaos", runMacroChaos, func(n int) Config { return Config{ChaosTenants: 16, ChaosPerTenant: n} },
			[]string{"retried", "dropped", "killed"}},
	} {
		t.Run(sc.id, func(t *testing.T) {
			run := func(perTenant int) uint64 {
				var tab *Table
				var err error
				mallocs := mallocsDuring(func() { tab, err = sc.run(7, sc.cfg(perTenant)) })
				if err != nil {
					t.Fatal(err)
				}
				for _, header := range sc.nonzero {
					if totalCell(t, tab, header) == "0" {
						t.Errorf("%d arrivals per tenant: TOTAL %s is 0, so that path went unmeasured", perTenant, header)
					}
				}
				return mallocs
			}
			const short, long, tenants = 2000, 6000, 16
			shortM, longM := run(short), run(long)
			perArrival := (float64(longM) - float64(shortM)) / float64(tenants*(long-short))
			t.Logf("%d mallocs at %d arrivals per tenant, %d at %d: %.3f per extra arrival", shortM, short, longM, long, perArrival)
			if perArrival >= 0.25 {
				t.Errorf("the open-loop tenant allocates %.3f times per arrival, want < 0.25", perArrival)
			}
			// The report rounds do not grow with arrivals, so only a total
			// sees them: set-up and a day of rounds included, the long run
			// stays under the same bound.
			if total := float64(longM) / float64(tenants*long); total >= 0.25 {
				t.Errorf("the %d-arrival run allocates %.3f times per arrival in total, want < 0.25", tenants*long, total)
			}
		})
	}
}

// TestKilledCallFramesComeHome lands one compiled kill on a tenant whose
// calls are in every state a frame can be in: two in service at the cap and
// two waiting on a retry. The victim's frame is pooled and re-submitted, the
// retries run out and drop, and the ledger (every arrival settled, every
// frame back on the free list, nothing in flight) says no frame was lost. A
// cancelled completion that fired anyway would complete the re-submitted
// call early, and the real completion would then panic on a frame missing
// from the live record.
func TestKilledCallFramesComeHome(t *testing.T) {
	h := newHarness("kill-test", 5, Config{Shards: 1}, 1, macroLookahead)
	fleet, perCap := h.openFleet(1, 4, chaosCkptEvery)
	tn := fleet[0]
	tn.sh.SchedulePriority(1, tn.id, func() {
		for range 4 {
			tn.getCall().try()
		}
		if len(tn.live) != perCap || tn.retried != 2 {
			t.Errorf("before the kill: %d in service, %d retrying; want %d and 2", len(tn.live), tn.retried, perCap)
		}
	})
	// The first retries are due 0.5 s (+-20 %) after the denials.
	fault.Compile(fault.MustNew(fault.KillAt(1.25, 1)), tn.sh, priFault, fault.Ops{Kill: func(n int) {
		victim := tn.live[len(tn.live)-1]
		tn.kill(n)
		if tn.killed != 1 || len(tn.live) != perCap || tn.live[perCap-1] != victim || tn.pooled() != 0 {
			t.Errorf("after the kill: killed=%d, %d in service, %d frames pooled; want the victim's frame re-submitted",
				tn.killed, len(tn.live), tn.pooled())
		}
	}})
	if err := h.run(); err != nil {
		t.Fatal(err)
	}
	if tn.completed != 2 || tn.dropped != 2 || tn.frames != 4 {
		t.Errorf("completed=%d dropped=%d on %d frames, want 2, 2 and 4", tn.completed, tn.dropped, tn.frames)
	}
	defer func() {
		if recover() == nil {
			t.Error("putCall accepted a frame that is already pooled")
		}
	}()
	tn.putCall(tn.free)
}

// TestHarnessRunReportsLedgerViolation injects one completion dropped on
// the floor and requires run() to turn it into an error; the untouched
// fleet must balance.
func TestHarnessRunReportsLedgerViolation(t *testing.T) {
	for _, sabotage := range []bool{false, true} {
		h := newHarness("ledger-test", 5, Config{Shards: 2}, 3, macroLookahead)
		fleet, _ := h.openFleet(3, 40, macroCkptEvery)
		for _, tn := range fleet {
			tn.start(nil)
		}
		if sabotage {
			tn := fleet[1]
			tn.sh.SchedulePriority(2*macroDay, 0, func() { tn.completed-- })
		}
		err := h.run()
		switch {
		case sabotage && (err == nil || !strings.Contains(err.Error(), "ledger")):
			t.Errorf("lost completion not reported as a ledger error: %v", err)
		case !sabotage && err != nil:
			t.Errorf("untouched fleet does not balance: %v", err)
		}
	}
}

// TestTallySumsInGroupOrder pins the tally's float summation order: tenants
// into their group in the order added, groups into TOTAL in group order.
func TestTallySumsInGroupOrder(t *testing.T) {
	ty := newTally("g", []string{"a", "b"}, count("n"), fixed("k"), money("usd$"))
	vals := []float64{0.1, 1e16, -1e16, 0.2}
	for i, v := range vals {
		ty.add(i%2, nil, 1, float64(7+i%2), v)
	}
	tab := ty.table("x", "t")
	a, b := vals[0]+vals[2], vals[1]+vals[3]
	want := [][]string{
		{"a", "2", "7", f4(a)},
		{"b", "2", "8", f4(b)},
		{"TOTAL", "4", "-", f4(a + b)},
	}
	if fmt.Sprint(tab.Rows) != fmt.Sprint(want) {
		t.Errorf("rows = %v, want %v", tab.Rows, want)
	}
}

// TestSortedTrafficRidesLanes verifies, from the kernel's own queue counters,
// the traffic claim the lanes rest on: on the shared-account scenarios most
// events belong to streams that are sorted when produced (Posts, warm-pool
// reclaims, account retries) and none of them needs the heap. Per shard the
// counters must add up to the events fired; over the run most events fire
// from a lane, next to no lane push falls back, the account shard — where the
// reclaims are set and canceled — never pops a dead entry, and its heap stays
// below the account's concurrency cap.
func TestSortedTrafficRidesLanes(t *testing.T) {
	for _, sc := range []struct {
		name     string
		run      func(seed uint64, cfg Config) (*Table, *harness, error)
		cfg      Config
		laneFrac float64 // least share of fired events that came from a lane
	}{
		{"macro-trace", macroTrace, Config{TrafficTenants: 16, TrafficRate: 1.6, TrafficHorizon: 600}, 0.55},
		{"macro-trace, one shard", macroTrace, Config{Shards: 1, TrafficTenants: 16, TrafficRate: 1.6, TrafficHorizon: 600}, 0.55},
		{"macro-fleet", macroFleet, Config{FleetTenants: 60}, 0.55},
	} {
		_, h, err := sc.run(7, sc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var total sim.QueueStats
		for i := range h.s.NumShards() {
			sh := h.s.Shard(i)
			st := sh.QueueStats()
			if st.LanePops+st.HeapPops != sh.EventsFired()+st.DeadPops {
				t.Errorf("%s: shard %d: %+v does not add up to %d events fired", sc.name, i, st, sh.EventsFired())
			}
			total.LanePops += st.LanePops
			total.DeadPops += st.DeadPops
			total.LanePushes += st.LanePushes
			total.Fallbacks += st.Fallbacks
		}
		fired := h.s.EventsFired()
		t.Logf("%s: %d events, %d from lanes, %d lane pushes, %d fallbacks, %d dead pops; account shard %+v",
			sc.name, fired, total.LanePops, total.LanePushes, total.Fallbacks, total.DeadPops, h.s.Shard(0).QueueStats())
		if float64(total.LanePops) < sc.laneFrac*float64(fired) {
			t.Errorf("%s: %d of %d events fired from a lane, want >= %.0f %%", sc.name, total.LanePops, fired, 100*sc.laneFrac)
		}
		if total.Fallbacks*1000 > total.LanePushes {
			t.Errorf("%s: %d of %d lane pushes fell back to the heap, want <= 0.1 %%", sc.name, total.Fallbacks, total.LanePushes)
		}
		account, capacity := h.s.Shard(0).QueueStats(), h.plats[0].Limits().MaxConcurrency
		if account.DeadPops != 0 || account.HeapPeak >= capacity {
			t.Errorf("%s: the account shard popped %d dead entries and its heap peaked at %d entries under a concurrency cap of %d; want 0 and fewer",
				sc.name, account.DeadPops, account.HeapPeak, capacity)
		}
	}
}

// TestShardCountClampedToPopulation: shards beyond the tenant count could
// never hold an event, so the harness does not create them, and a run asked
// for thousands of shards prints what the default prints.
func TestShardCountClampedToPopulation(t *testing.T) {
	if h := newHarness("clamp-test", 1, Config{Shards: 4096}, 5, macroLookahead); h.s.NumShards() > 5 {
		t.Errorf("%d shards for 5 tenants", h.s.NumShards())
	}
	if h := newHarness("clamp-test", 1, Config{Shards: 2}, 5, macroLookahead); h.s.NumShards() != 2 {
		t.Errorf("%d shards for 5 tenants on 2 requested", h.s.NumShards())
	}
	for _, id := range []string{"macro-day", "macro-chaos", "macro-trace", "macro-fleet"} {
		base, _, _ := runMacro(t, id, 3, Config{Shards: 8}, false)
		wide, _, _ := runMacro(t, id, 3, Config{Shards: 4096}, false)
		if base.String() != wide.String() {
			t.Errorf("%s: -shards 4096 prints a different table than -shards 8", id)
		}
	}
}
