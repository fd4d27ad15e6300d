package experiments

// macro-chaos is the fault-injection acceptance scenario for the sharded
// kernel: macro-day's open-loop tenant fleet (openTenant, harness.go) with
// every tenant carrying its own deterministic fault.Schedule, compiled onto
// its shard as ordinary kernel events. Four fault profiles rotate across the
// fleet (tenant t -> profile t%4):
//
//   - kills: in-flight sandboxes terminate mid-request, the victims'
//     completion events are cancelled (live-record bookkeeping keeps the
//     cancel set strictly pending, so strict-cancel stays clean) and the
//     clients immediately re-submit;
//   - reclaim+spike: the warm pool is spot-reclaimed and a cold-start
//     spike window makes the resulting cold starts expensive;
//   - brownout: checkpoint puts cross the tenant's deterministic
//     fault.Gate, which forces bounded retries, degrading to a dropped
//     checkpoint (never a panic) when the policy exhausts;
//   - straggler: service times inflate inside slowdown windows.
//
// Like macro-day, the table and obs exports must be byte-identical at every
// (shards, workers) setting: every fault event carries a priFault+tenant
// priority, each tenant's brownout gate is private (the shared Store only
// accumulates order-independent counters), and the shard-0 monitor's
// feedback loop is pinned by the same report/absorb/shed priority bands.

import (
	"cmp"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trainer"
	"repro/internal/workload"
)

func init() {
	register("macro-chaos", runMacroChaos)
	register("fault-restart", runFaultRestart)
}

const (
	chaosCkptEvery = 32    // checkpoint cadence, in completions per tenant
	chaosMonGap    = 600.0 // tenants report distress every 10 minutes
)

var chaosProfiles = []string{"kills", "reclaim+spike", "brownout", "straggler"}

// chaosSchedule is tenant t's deterministic fault diet: profile by t%4,
// every instant and window offset by t so no two tenants fault at the same
// time and the whole fleet's schedule is a pure function of the population.
func chaosSchedule(t int) *fault.Schedule {
	off := float64(t)
	switch t % 4 {
	case 0:
		return fault.MustNew(
			fault.KillAt(14400+617*off, 1),
			fault.KillAt(43200+617*off, 2),
			fault.KillAt(64800+617*off, 1),
		)
	case 1:
		return fault.MustNew(
			fault.ReclaimAt(10800+811*off, 3),
			fault.ReclaimAt(54000+811*off, 3),
			fault.ColdSpikeWindow(18000+450*off, 36000+450*off, 6),
		)
	case 2:
		return fault.MustNew(
			fault.BrownoutWindow(21600+523*off, 50400+523*off, 3, 0.4),
		)
	default:
		return fault.MustNew(
			fault.StragglerWindow(12600+379*off, 31200+379*off, 2),
			fault.StragglerWindow(57600+379*off, 72000+379*off, 3),
		)
	}
}

// chaosMonitor is the shard-0 health loop: when a window's fleet-wide
// distress (cumulative kills, drops, retries and checkpoint retries) grows
// past the threshold, it sheds the most distressed tenant for two minutes.
// Victim choice is fixed by (distress, id), never by shard layout.
type chaosMonitor struct {
	tenants   []*openTenant
	scope     *obs.Observer
	lastTotal int
	threshold int
	sheds     uint64
}

func (m *chaosMonitor) window(now sim.Time, distress []int) {
	total, worst := 0, 0
	for t, d := range distress {
		total += d
		if d > distress[worst] {
			worst = t
		}
	}
	if total-m.lastTotal > m.threshold {
		m.tenants[worst].shedFor(now)
		m.sheds++
	}
	if m.scope != nil {
		m.scope.Trace().InstantAt(float64(now), "macro", "monitor", "window",
			obs.I("distress", total), obs.I("new", total-m.lastTotal), obs.I("sheds_total", int(m.sheds)))
	}
	m.lastTotal = total
}

func runMacroChaos(seed uint64, cfg Config) (*Table, error) {
	tenants, perTenant := cmp.Or(cfg.ChaosTenants, 24), cmp.Or(cfg.ChaosPerTenant, 1000)
	h := newHarness("macro-chaos", seed, cfg, tenants, macroLookahead)
	// One new distress event per tenant per window is background noise;
	// above that the window had a real incident.
	mon := &chaosMonitor{scope: h.scope("macro-chaos/monitor"), threshold: tenants}
	reports := h.newGather(tenants, chaosMonGap, macroDay, priReport, priAbsorb, mon.window)

	fleet, perCap := h.openFleet(tenants, perTenant, chaosCkptEvery, 2*macroReportGap)
	mon.tenants = fleet
	faults := 0
	for t, tn := range fleet {
		faults += tn.start(chaosSchedule(t))
		reports.join(tn.sh, tn.id, func() int { return int(tn.killed + tn.dropped + tn.retried + tn.ckptRetries) })
	}
	if err := h.run(); err != nil {
		return nil, err
	}

	ty := newTally("profile", chaosProfiles, count("tenants"), count("completed"), count("killed"),
		count("reclaimed"), count("retried"), count("shed"), count("dropped"),
		count("ckpt_retry"), count("ckpt_drop"), count("cold"), money("cost$"))
	var puts uint64
	for t, tn := range fleet {
		m := tn.plat.Meter()
		ty.add(t%len(chaosProfiles), nil, 1, float64(tn.completed), float64(tn.killed), float64(tn.reclaimed),
			float64(tn.retried), float64(tn.shed), float64(tn.dropped),
			float64(tn.ckptRetries), float64(tn.ckptDropped), float64(tn.cold), m.Total())
		puts += tn.ckptPuts
	}
	tab := ty.table("macro-chaos", "Macro chaos: tenant fleet under compiled per-tenant fault schedules")
	tab.Notes = fmt.Sprintf(
		"%d tenants x %d arrivals over a 24h simulated day; per-tenant concurrency cap %d, monitor threshold %d (sheds=%d), checkpoints every %d completions (puts=%d); fault events compiled=%d; events=%d",
		tenants, perTenant, perCap, mon.threshold, mon.sheds, chaosCkptEvery, puts, faults, h.s.EventsFired())
	return tab, nil
}

// fault-restart — the recovery-policy figure: the same kill-heavy fault
// schedule hits a training job twice, once under immediate restarts (the
// scheduler switches allocation as soon as it re-plans) and once under
// delayed restarts (the new group starts up while the old one finishes the
// epoch). The schedule is placed relative to a calm probe run's JCT so the
// kills land mid-training at any seed.
func runFaultRestart(seed uint64, _ Config) (*Table, error) {
	w := workload.MobileNet()
	fw := core.New(w)
	run := func(sched *fault.Schedule, delayed bool, qos float64) (*trainer.Result, error) {
		s, alloc, _, err := fw.Session(core.Options{QoS: qos, Seed: seed, DisableDelayedRestart: !delayed})
		if err != nil {
			return nil, err
		}
		res := new(trainer.Result)
		return res, trainer.NewRunner(seed).Run(trainer.Config{
			Workload:   w,
			Engine:     w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, seed),
			Alloc:      alloc,
			TargetLoss: w.TargetLoss,
			MaxEpochs:  2000,
			Faults:     sched,
			Controller: s.Controller(),
		}, res)
	}

	probe, err := run(nil, false, 1e15)
	if err != nil {
		return nil, err
	}
	j := probe.JCT
	qos := 1.5 * j
	sched := func() *fault.Schedule {
		return fault.MustNew(
			fault.KillAt(0.15*j, 3),
			fault.KillAt(0.45*j, 3),
			fault.StragglerWindow(0.3*j, 0.7*j, 2),
			fault.BrownoutWindow(0.5*j, 0.9*j, 2, 0.5),
		)
	}

	tab := &Table{
		ID:      "fault-restart",
		Title:   "Fault recovery policy: immediate vs delayed restart under one fault schedule (MobileNet)",
		Headers: []string{"policy", "JCT", "overhead", "failures", "restarts", "ckpt retries", "degraded", "cost", "converged"},
		Notes: fmt.Sprintf(
			"schedule: 3-sandbox kills at 15%% and 45%% of the calm JCT (%s), a 2x straggler window over 30-70%%, a rate-0.5 brownout over 50-90%%; QoS = 1.5x calm JCT",
			seconds(j)),
	}
	cases := []struct {
		label   string
		sched   *fault.Schedule
		delayed bool
	}{
		{"no-fault", nil, false},
		{"immediate", sched(), false},
		{"delayed", sched(), true},
	}
	for _, c := range cases {
		res, err := run(c.sched, c.delayed, qos)
		if err != nil {
			return nil, err
		}
		tab.Rows = append(tab.Rows, []string{
			c.label, seconds(res.JCT), seconds(res.OverheadTime),
			fmt.Sprintf("%d", res.Failures), fmt.Sprintf("%d", res.Restarts),
			fmt.Sprintf("%d", res.StorageRetries), fmt.Sprintf("%t", res.Degraded),
			f4(res.TotalCost), fmt.Sprintf("%t", res.Converged),
		})
	}
	return tab, nil
}
