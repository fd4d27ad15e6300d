package experiments

// macro-fleet is the control-path macro scenario: T complete Algorithm-2
// controllers — each with its own online curve fitter, drift detector and
// constrained Pareto selection — training concurrently as tenants of one
// shared serverless account. Where macro-day stresses the *kernel* with
// millions of cheap events, macro-fleet multiplies the per-epoch *decision*
// (fit -> predict -> select -> log) by the tenant count, so decisions/sec
// is the headline number (cmd/bench parses "decisions=" from the table
// notes).
//
// Sharing layout:
//
//   - Tenants of the same model class share one cost.Model and one interned
//     cost.Frontier (scheduler.Config.Frontier) — the candidate set is a
//     single immutable array searched in place by every controller.
//   - All tenants share one account (the admission pipeline in harness.go).
//     Function groups are acquired at job start and at every scheduler
//     restart, so account state mutates only in shard-0 events whose order
//     is pinned by (time, priority).
//   - Everything else — scheduler, predictor buffers, loss stream, budget
//     accounting — is tenant-private on the tenant's shard (t % shards).
//
// Scaling note: the registered default is 48 tenants so smoke tests run in
// milliseconds; Config.FleetTenants (cebench -fleet-tenants) raises it to
// the thousands.

import (
	"cmp"
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/predictor"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/trainer"
	"repro/internal/workload"
)

func init() { register("macro-fleet", runMacroFleet) }

const (
	fleetLookahead = 5.0 // conservative window: every cross-shard Post delay
	fleetStagger   = 2.0 // seconds between consecutive tenants' job starts
	fleetMaxRetry  = 8   // invoke attempts per group request before a drop
	fleetMaxEpochs = 400 // hard cap per job (targets converge in tens)

	// Epoch ticks (+ tenant id) sort before the account's bands.
	priFleetEpoch = 0
)

var fleetBands = accountBands{release: 1_000_000, invoke: 2_000_000, retry: 3_000_000, grant: 4_000_000}

// fleetTuning is the predictor configuration every fleet controller runs:
// bounded history, warm-started refits with a small LM budget — the
// zero-alloc steady state BenchmarkDecisionFleet measures.
var fleetTuning = predictor.Tuning{FixedWindow: 32, WarmStart: true, RefitBudget: 10}

// fleetClass is the per-model-class shared state: one analytic cost model,
// one interned Pareto frontier, one offline predictor — all read-only during
// the run, shared by every tenant of the class.
type fleetClass struct {
	w       *workload.Model
	model   *cost.Model
	front   *cost.Frontier
	byAlloc map[cost.Allocation]cost.Point
	offline *predictor.Offline

	nomEpochs int     // noiseless epochs to the class target
	cheapCost float64 // cheapest per-epoch cost on the frontier
	fastTime  float64 // fastest per-epoch time on the frontier
}

// fleetTenant is one training job: a full CE-scaling scheduler plus the
// simulated epoch loop that feeds it losses and carries out its decisions.
type fleetTenant struct {
	member
	cl    *fleetClass
	ctrl  trainer.Controller
	loss  *sim.Rand
	curve workload.CurveParams

	budget, qos float64 // the tenant's binding constraint (other is 0)

	cur     cost.Point // allocation currently granted (or being requested)
	group   *invFrame  // the granted function group
	grantAt sim.Time
	startAt sim.Time
	epochFn func()

	epoch     int
	spent     float64
	decisions uint64
	restarts  uint64
	cold      uint64
	converged bool
	dropped   bool
	jct       float64
}

// lossAt mirrors workload's curveEngine: the tenant's jittered convergence
// curve with multiplicative log-normal noise above the floor.
func (tn *fleetTenant) lossAt(e int) float64 {
	base := tn.curve.Eval(float64(e))
	if tn.curve.Noise > 0 {
		base = tn.curve.C + (base-tn.curve.C)*tn.loss.LogNormal(0, tn.curve.Noise)
	}
	return base
}

func (tn *fleetTenant) start() {
	tn.startAt = tn.sh.Now()
	tn.requestGroup(tn.cur)
}

// requestGroup asks the account for p's allocation; epochs resume when the
// grant comes back.
func (tn *fleetTenant) requestGroup(p cost.Point) {
	tn.cur, tn.n, tn.memMB = p, p.Alloc.N, p.Alloc.MemMB
	tn.request()
}

func (tn *fleetTenant) granted(fr *invFrame) {
	tn.group, tn.grantAt = fr, tn.sh.Now()
	tn.cold += uint64(fr.cold)
	tn.sh.SchedulePriority(tn.sh.Now()+sim.Time(fr.delay+tn.cur.Time), priFleetEpoch+tn.id, tn.epochFn)
}

// releaseGroup hands the held group back to the account with its held
// wall-clock seconds (what the account bills as compute).
func (tn *fleetTenant) releaseGroup() {
	tn.group.held = float64(tn.sh.Now() - tn.grantAt)
	tn.release(tn.group)
}

// denied ends the job after the account refused a group fleetMaxRetry times
// (any previously held group was already released before the request).
func (tn *fleetTenant) denied() {
	tn.dropped = true
	tn.jct = float64(tn.sh.Now() - tn.startAt)
}

// epochDone is the per-epoch tick: observe the loss, run the full
// Algorithm-2 decision, then carry it out — stop, restart onto a new group,
// or schedule the next epoch (charging the modeled planning overhead).
func (tn *fleetTenant) epochDone() {
	tn.epoch++
	loss := tn.lossAt(tn.epoch)
	tn.spent += tn.cur.Cost
	elapsed := float64(tn.sh.Now() - tn.startAt)
	dec := tn.ctrl(tn.epoch, loss, elapsed, tn.spent)
	tn.decisions++
	switch {
	case loss <= tn.cl.w.TargetLoss, dec.Stop, tn.epoch >= fleetMaxEpochs:
		tn.converged = loss <= tn.cl.w.TargetLoss
		tn.jct = elapsed
		tn.releaseGroup()
	case dec.NewAlloc != nil:
		np, ok := tn.cl.byAlloc[*dec.NewAlloc]
		if !ok {
			np = tn.cur // unreachable: the scheduler selects frontier points
		}
		tn.restarts++
		tn.releaseGroup()
		tn.requestGroup(np)
	default:
		next := tn.sh.Now() + sim.Time(tn.cur.Time+dec.PlanningSeconds)
		tn.sh.SchedulePriority(next, priFleetEpoch+tn.id, tn.epochFn)
	}
}

func runMacroFleet(seed uint64, cfg Config) (*Table, error) {
	tab, _, err := macroFleet(seed, cfg)
	return tab, err
}

// macroFleet also returns the harness, for tests reading kernel counters.
func macroFleet(seed uint64, cfg Config) (*Table, *harness, error) {
	tenants := cmp.Or(cfg.FleetTenants, 48)
	h := newHarness("macro-fleet", seed, cfg, tenants, fleetLookahead)

	grid := cost.DefaultGrid()
	classModels := []*workload.Model{workload.MobileNet(), workload.ResNet50(), workload.BERT()}
	classes := make([]*fleetClass, len(classModels))
	for i, w := range classModels {
		m := cost.NewModel(w)
		front := m.ParetoFrontier(grid)
		if front.Len() == 0 {
			return nil, nil, fmt.Errorf("macro-fleet: empty Pareto frontier for %s", w.Name)
		}
		byAlloc := make(map[cost.Allocation]cost.Point, front.Len())
		cheap, fast := math.Inf(1), math.Inf(1)
		for _, p := range front.Points() {
			byAlloc[p.Alloc] = p
			if p.Cost < cheap {
				cheap = p.Cost
			}
			if p.Time < fast {
				fast = p.Time
			}
		}
		nom, ok := w.Curve.EpochsToReach(w.TargetLoss)
		if !ok {
			return nil, nil, fmt.Errorf("macro-fleet: %s target %g below its curve floor", w.Name, w.TargetLoss)
		}
		classes[i] = &fleetClass{
			w: w, model: m, front: front, byAlloc: byAlloc,
			offline:   predictor.NewOffline(w),
			nomEpochs: nom, cheapCost: cheap, fastTime: fast,
		}
	}

	// Build every tenant's scheduler and initial allocation first (setup is
	// deterministic in tenant order), so the account's concurrency cap can be
	// sized below the fleet's aggregate initial demand — real contention:
	// denials, backoff retries, and drops under pressure.
	fleet := make([]*fleetTenant, tenants)
	totalN := 0
	for t := range fleet {
		name := h.tenantName(t, tenants)
		cl := classes[t%len(classes)]
		shape := h.s.Rand(name + "/shape")
		cp := cl.w.Curve
		cp.A *= shape.LogNormal(0, 0.10) // per-tenant convergence-speed draw
		var budget, qos float64
		if t%2 == 0 {
			budget = float64(cl.nomEpochs) * cl.cheapCost * (1.2 + 0.8*shape.Float64())
		} else {
			qos = float64(cl.nomEpochs) * cl.fastTime * (1.5 + 2.5*shape.Float64())
		}
		sched := scheduler.New(scheduler.Config{
			Model:        cl.model,
			Frontier:     cl.front,
			Budget:       budget,
			QoS:          qos,
			TargetLoss:   cl.w.TargetLoss,
			OnlineTuning: &fleetTuning,
			Offline:      cl.offline,
			OfflineSeed:  seed ^ (uint64(t)*0x9e3779b97f4a7c15 + 1),
			Obs:          h.scope(name),
		})
		alloc, _ := sched.Initial()
		p, ok := cl.byAlloc[alloc]
		if !ok {
			return nil, nil, fmt.Errorf("macro-fleet: tenant %d initial allocation %v not on the class frontier", t, alloc)
		}
		tn := &fleetTenant{
			member: member{id: t, sh: h.shard(t)},
			cl:     cl, ctrl: sched.Controller(),
			loss: h.s.Rand(name + "/loss"), curve: cp,
			budget: budget, qos: qos, cur: p,
		}
		tn.epochFn = tn.epochDone
		fleet[t] = tn
		totalN += alloc.N
	}

	ac := h.newAccount(max(64, totalN*4/5), fleetMaxRetry, fleetBands)
	for _, tn := range fleet {
		tn.join(ac, tn)
		tn.sh.SchedulePriority(sim.Time(fleetStagger*float64(tn.id+1)), priFleetEpoch+tn.id, tn.start)
	}
	if err := h.run(); err != nil {
		return nil, nil, err
	}

	labels := make([]string, len(classes))
	for i, cl := range classes {
		labels[i] = cl.w.Name
	}
	ty := newTally("class", labels, count("tenants"), count("converged"), count("budget-met"), count("qos-met"),
		count("restarts"), count("dropped"), count("decisions"), money("modeled$"))
	var decisions uint64
	for t, tn := range fleet {
		ty.add(t%len(classes), nil, 1, b2f(tn.converged),
			b2f(tn.budget > 0 && tn.spent <= tn.budget && !tn.dropped),
			b2f(tn.qos > 0 && tn.jct <= tn.qos && !tn.dropped),
			float64(tn.restarts), b2f(tn.dropped), float64(tn.decisions), tn.spent)
		decisions += tn.decisions
	}
	tab := ty.table("macro-fleet", "Macro fleet: concurrent Algorithm-2 controllers on one shared account")
	meter := ac.plat.Meter()
	tab.Notes = fmt.Sprintf(
		"%d tenants x %d model classes on one shared account (concurrency cap %d, denials=%d, account compute $%.2f); each class shares one interned Pareto frontier; controllers run the fleet tuning (window %d, warm start, refit budget %d); decisions=%d; events=%d",
		tenants, len(classes), ac.plat.Limits().MaxConcurrency, ac.retries+ac.denials, meter.Total(),
		fleetTuning.FixedWindow, fleetTuning.RefitBudget, decisions, h.s.EventsFired())
	return tab, h, nil
}

// b2f counts a condition into a tally column.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
