package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// execution is one cebench child process as the driver saw it from outside.
type execution struct {
	stdout, stderr []byte
	exitErr        error // start failure or non-zero exit
	wallS          float64
	cpuS           float64 // user + system
	peakRSSMB      float64 // ru_maxrss
}

// observed is what one execution's output says, once it has been read.
type observed struct {
	digest      string // SHA-256 of stdout
	tables      []table
	artifacts   []artifactTime
	counters    map[string]float64
	modelErrPct float64 // 0 unless fig19 and fig20 were printed
}

func digestOf(stdout []byte) string {
	sum := sha256.Sum256(stdout)
	return hex.EncodeToString(sum[:])
}

// verify applies the checks that need only one execution: exit status, no
// `cebench: <id>: <err>` line, every requested artifact printed in order,
// and the ledgers of the macro TOTAL rows. Each violated check is one entry
// of the returned list; an execution with a non-empty list is a failed one.
// Determinism, the golden digest and the trace-s1/trace-s8w2 identity need
// two executions and live in checkDigest.
func verify(w *workload, sc scale, e *execution) (*observed, []string) {
	var fails []string
	failf := func(format string, a ...any) { fails = append(fails, fmt.Sprintf(format, a...)) }

	if e.exitErr != nil {
		failf("child: %v", e.exitErr)
	}
	o := &observed{digest: digestOf(e.stdout)}
	var errLines []string
	o.artifacts, errLines = parseStderr(e.stderr)
	for _, l := range errLines {
		failf("stderr: %s", l)
	}
	tables, err := parseTables(e.stdout)
	if err != nil {
		failf("stdout: %v", err)
		return o, fails
	}
	o.tables = tables

	want := w.ids(sc)
	got := make([]string, len(tables))
	for i := range tables {
		got[i] = tables[i].id
	}
	missing := false
	for _, id := range want {
		if !slices.Contains(got, id) {
			failf("missing artifact %s", id)
			missing = true
		}
	}
	if !missing && !slices.Equal(got, want) {
		failf("artifacts printed %v, want %v", got, want)
	}

	for i := range tables {
		t := &tables[i]
		if !strings.HasPrefix(t.id, "macro-") {
			continue
		}
		for _, f := range checkTotals(t) {
			failf("%s: %s", t.id, f)
		}
		for _, f := range checkLedger(t, sc) {
			failf("%s: %s", t.id, f)
		}
	}
	o.counters = countersOf(tables)
	o.modelErrPct = modelErrPct(tables)
	return o, fails
}

// notSummed are numeric TOTAL cells that are not sums of their column.
var notSummed = map[string]bool{"p50s": true, "p95s": true}

// checkTotals requires every numeric TOTAL cell to equal the sum of the
// class rows above it. Money cells are printed to four decimals, so their
// sum may be off by half a unit in the last place per row.
func checkTotals(t *table) []string {
	total := t.total()
	if total == nil {
		return []string{"no TOTAL row"}
	}
	var fails []string
	for _, r := range t.rows {
		if len(r) != len(t.headers) {
			return []string{fmt.Sprintf("row %q has %d cells, header has %d", r[0], len(r), len(t.headers))}
		}
	}
	for c := 1; c < len(t.headers); c++ {
		want, err := strconv.ParseFloat(total[c], 64)
		if err != nil || notSummed[t.headers[c]] {
			continue
		}
		sum, n := 0.0, 0
		for _, r := range t.rows {
			if r[0] == "TOTAL" {
				continue
			}
			v, err := strconv.ParseFloat(r[c], 64)
			if err != nil {
				fails = append(fails, fmt.Sprintf("column %s: cell %q is not a number", t.headers[c], r[c]))
				continue
			}
			sum += v
			n++
		}
		tol := 1e-9
		if strings.Contains(total[c], ".") {
			tol = 0.5e-4*float64(n+1) + 1e-9
		}
		if math.Abs(sum-want) > tol {
			fails = append(fails, fmt.Sprintf("TOTAL %s = %s, class rows sum to %g", t.headers[c], total[c], sum))
		}
	}
	return fails
}

// checkLedger checks the conservation law of one macro scenario: every
// arrival is accounted for exactly once.
func checkLedger(t *table, sc scale) []string {
	cell := func(name string) float64 {
		v, ok := t.totalCell(name)
		if !ok {
			return math.NaN() // fails every comparison below
		}
		return v
	}
	var fails []string
	expect := func(ok bool, format string, a ...any) {
		if !ok {
			fails = append(fails, fmt.Sprintf(format, a...))
		}
	}
	switch t.id {
	case "macro-trace":
		expect(cell("tenants") == float64(sc.trafficTenants), "TOTAL tenants = %v, want %d", cell("tenants"), sc.trafficTenants)
		expect(cell("arrivals") == cell("completed")+cell("dropped"),
			"arrivals %v != completed %v + dropped %v", cell("arrivals"), cell("completed"), cell("dropped"))
		expect(cell("arrivals") > 0, "no arrivals")
	case "macro-day", "macro-chaos":
		tenants, per := sc.macroTenants, sc.macroPerTenant
		if t.id == "macro-chaos" {
			tenants, per = sc.chaosTenants, sc.chaosPerTenant
		}
		expect(cell("tenants") == float64(tenants), "TOTAL tenants = %v, want %d", cell("tenants"), tenants)
		expect(cell("completed")+cell("shed")+cell("dropped") == float64(tenants*per),
			"completed %v + shed %v + dropped %v != %d tenants x %d arrivals",
			cell("completed"), cell("shed"), cell("dropped"), tenants, per)
	case "macro-fleet":
		expect(cell("tenants") == float64(sc.fleetTenants), "TOTAL tenants = %v, want %d", cell("tenants"), sc.fleetTenants)
		expect(cell("converged") <= cell("tenants"), "converged %v > tenants %v", cell("converged"), cell("tenants"))
		expect(cell("decisions") > 0, "no decisions")
	}
	return fails
}

// countersOf reads the exact counters cebench prints, summed over the
// tables of one execution. A counter is present only where a table carries
// it. These repeat exactly at one seed; they are reported as counts.
func countersOf(tables []table) map[string]float64 {
	c := map[string]float64{"experiments.artifacts": float64(len(tables))}
	add := func(name string, v float64, ok bool) {
		if ok {
			c[name] += v
		}
	}
	for i := range tables {
		t := &tables[i]
		if !strings.HasPrefix(t.id, "macro-") {
			continue
		}
		note := noteCounters(t.note)
		fromNote := func(name, key string) { v, ok := note[key]; add(name, v, ok) }
		fromTotal := func(name, col string) { v, ok := t.totalCell(col); add(name, v, ok) }
		fromNote("sim.events", "events")
		fromNote("experiments.invocations", "invocations")
		if m := noteArrivals.FindStringSubmatch(t.note); m != nil {
			tenants, _ := strconv.ParseFloat(m[1], 64)
			per, _ := strconv.ParseFloat(m[2], 64)
			add("experiments.invocations", tenants*per, true)
		}
		fromNote("faas.denials", "denials")
		fromNote("faas.retries", "retries")
		fromTotal("faas.retries", "retried")
		fromTotal("faas.cold_starts", "cold")
		fromNote("scheduler.decisions", "decisions")
		fromTotal("trainer.restarts", "restarts")
		fromNote("storage.ckpt_puts", "puts")
		fromNote("fault.events_compiled", "compiled")
		fromTotal("experiments.dropped", "dropped")
	}
	if inv := c["experiments.invocations"]; inv > 0 {
		c["sim.events_per_invocation"] = c["sim.events"] / inv
	}
	return c
}

// modelErrPct is the largest `JCT err` / `cost err` cell of fig19 and fig20:
// the analytic model's error against the simulated substrate, in percent of
// simulated quantities.
func modelErrPct(tables []table) float64 {
	worst := 0.0
	for i := range tables {
		t := &tables[i]
		if t.id != "fig19" && t.id != "fig20" {
			continue
		}
		for _, h := range []string{"JCT err", "cost err"} {
			for _, r := range t.rows {
				s, _ := t.cell(r, h)
				if v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64); err == nil {
					worst = math.Max(worst, v)
				}
			}
		}
	}
	return worst
}

// checkDigest compares an execution's stdout digest with the one it must
// equal: an earlier execution of the same workload and seed (determinism),
// the committed golden digest, or the sameAs workload's digest.
func checkDigest(what, got, want string) []string {
	if got == want {
		return nil
	}
	return []string{fmt.Sprintf("stdout sha256 %s != %s %s", got, what, want)}
}
