package experiments

// macro-day is the sharded-kernel macro scenario: a full simulated day of
// serverless ML inference traffic across many tenant accounts, each an
// openTenant (harness.go) on its own faas.Platform pinned to a kernel shard.
// Tenants interact only through the one shared-account resource the
// sharded kernel models as a cross-shard interaction point: a shard-0
// coordinator that tenants report their in-flight load to once per minute
// and that posts load-shedding directives back. Each tenant checkpoints
// and counts its checkpoint writes on its own shard; the table's note sums
// them.
//
// The scenario is the acceptance workload for the sharded kernel: its
// table and its obs trace must be byte-identical at every (shards,
// workers) setting.
//
// Scaling note: the registered default is 32 tenants x 1500 invocations
// (48k arrivals) so the determinism matrix and the smoke tests run in well
// under a second; Config.MacroTenants/MacroPerTenant raise it.

import (
	"cmp"
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

func init() { register("macro-day", runMacroDay) }

const (
	macroLookahead = 30.0 // conservative window: no cross-shard effect sooner
	macroReportGap = 60.0 // tenants report to the coordinator once a minute
	macroCkptEvery = 64   // checkpoint cadence, in completions per tenant
)

// macroCoordinator is the shard-0 control loop: once all tenants' reports
// for a minute have arrived it compares total in-flight load against the
// fleet's admission budget and sheds the most loaded tenants for a minute.
type macroCoordinator struct {
	tenants   []*openTenant
	scope     *obs.Observer
	threshold int
	sheds     uint64
}

func (c *macroCoordinator) window(now sim.Time, inFlight []int) {
	total := 0
	for _, n := range inFlight {
		total += n
	}
	// Shed the most loaded tenants, ties broken by tenant id: both the
	// victim set and the directive order are fixed by (load, id), never by
	// shard layout.
	for over, shed := total-c.threshold, 0; over > 0 && shed < len(c.tenants); shed++ {
		worst := -1
		for t, n := range inFlight {
			if n > 0 && (worst < 0 || n > inFlight[worst]) {
				worst = t
			}
		}
		if worst < 0 {
			break
		}
		c.tenants[worst].shedFor(now)
		c.sheds++
		over -= inFlight[worst]
		inFlight[worst] = 0
	}
	if c.scope != nil {
		c.scope.Trace().InstantAt(float64(now), "macro", "coordinator", "window",
			obs.I("in_flight", total), obs.I("threshold", c.threshold), obs.I("sheds_total", int(c.sheds)))
	}
}

func runMacroDay(seed uint64, cfg Config) (*Table, error) {
	tenants, perTenant := cmp.Or(cfg.MacroTenants, 32), cmp.Or(cfg.MacroPerTenant, 1500)
	h := newHarness("macro-day", seed, cfg, tenants, macroLookahead)
	coord := &macroCoordinator{scope: h.scope("macro-day/coordinator")}
	reports := h.newGather(tenants, macroReportGap, macroDay, priReport, priAbsorb, coord.window)

	fleet, perCap := h.openFleet(tenants, perTenant, macroCkptEvery, macroReportGap)
	// The shedding budget sits just below the fleet's typical aggregate
	// in-flight load (staggered diurnal phases keep the total near its
	// mean), so the coordinator genuinely sheds during busy windows.
	coord.tenants, coord.threshold = fleet, tenants*perCap*2/5
	for _, tn := range fleet {
		tn.start(nil)
		reports.join(tn.sh, tn.id, tn.plat.InFlight)
	}
	if err := h.run(); err != nil {
		return nil, err
	}

	ty := newTally("class", []string{"mem-0", "mem-1", "mem-2"}, count("tenants"), fixed("memMB"),
		count("completed"), count("retried"), count("shed"), count("dropped"), count("cold"), money("cost$"))
	var puts uint64
	for t, tn := range fleet {
		m := tn.plat.Meter()
		ty.add(t%3, nil, 1, float64(tn.memMB), float64(tn.completed), float64(tn.retried),
			float64(tn.shed), float64(tn.dropped), float64(tn.cold), m.Total())
		puts += tn.ckptPuts
	}
	tab := ty.table("macro-day", "Macro day: multi-tenant inference fleet with coordinator shedding")
	tab.Notes = fmt.Sprintf(
		"%d tenants x %d arrivals over a 24h simulated day; per-tenant concurrency cap %d, coordinator budget %d, checkpoints every %d completions (puts=%d); events=%d",
		tenants, perTenant, perCap, coord.threshold, macroCkptEvery, puts, h.s.EventsFired())
	return tab, nil
}
