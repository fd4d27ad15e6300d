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
//   - Tenants of the same model class share one interned cost.Frontier
//     (scheduler.Config.Frontier) and one offline predictor — the candidate
//     set is a single immutable array searched in place by every controller.
//   - All tenants share one account (the admission pipeline in harness.go).
//     Function groups are acquired at job start and at every scheduler
//     restart, so account state mutates only in shard-0 events whose order
//     is pinned by (time, priority).
//   - Everything else — scheduler, predictor buffers, loss stream, budget
//     accounting — is tenant-private on the tenant's shard (t % shards).
//   - Each controller is one compact record: the tenants are one slab, and
//     a tenant embeds its scheduler.Scheduler, which holds its predictor,
//     which holds its fitter, by value; so does the tenant its loss walk and
//     the walk its own random stream (sim.Simulation.Stream, of which the
//     simulation keeps no record). The predictor's window stores only its
//     losses; its epochs are a view of one shared ramp
//     (TestFleetFootprintPerTenant). The scheduler names its current point by
//     its index in the class frontier, so the tenant reads the point it is
//     on, and requests its group, straight from Current.
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

// fleetClass is the per-model-class shared state: one interned Pareto
// frontier and one offline predictor — both read-only during the run, shared
// by every tenant of the class.
type fleetClass struct {
	w       *workload.Model
	front   *cost.Frontier
	offline *predictor.Offline

	nomEpochs int     // noiseless epochs to the class target
	cheapCost float64 // cheapest per-epoch cost on the frontier
	fastTime  float64 // fastest per-epoch time on the frontier
}

// fleetTenant is one training job: a full CE-scaling scheduler plus the
// simulated epoch loop that feeds it losses and carries out its decisions.
// The scheduler's Current point is the allocation granted, or being
// requested.
type fleetTenant struct {
	member
	scheduler.Scheduler
	cl   *fleetClass
	loss workload.CurveRun // the tenant's jittered convergence curve

	group   *invFrame // the granted function group
	grantAt sim.Time
	startAt sim.Time
	epochFn func()

	epoch     int // epochs run, each one decision
	spent     float64
	restarts  uint64
	cold      uint64
	converged bool
	dropped   bool
	jct       float64
}

func (tn *fleetTenant) start() {
	tn.startAt = tn.sh.Now()
	tn.requestGroup()
}

// requestGroup asks the account for the scheduler's current allocation;
// epochs resume when the grant comes back.
func (tn *fleetTenant) requestGroup() {
	a := tn.Current().Alloc
	tn.n, tn.memMB = a.N, a.MemMB
	tn.request()
}

func (tn *fleetTenant) granted(fr *invFrame) {
	tn.group, tn.grantAt = fr, tn.sh.Now()
	tn.cold += uint64(fr.cold)
	tn.sh.SchedulePriority(tn.sh.Now()+sim.Time(fr.delay+tn.Current().Time), priFleetEpoch+tn.id, tn.epochFn)
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
	loss := tn.loss.NextEpoch()
	tn.spent += tn.Current().Cost
	elapsed := float64(tn.sh.Now() - tn.startAt)
	dec := tn.Decide(tn.epoch, loss, elapsed, tn.spent)
	switch {
	case loss <= tn.cl.w.TargetLoss, dec.Stop, tn.epoch >= fleetMaxEpochs:
		tn.converged = loss <= tn.cl.w.TargetLoss
		tn.jct = elapsed
		tn.releaseGroup()
	case dec.Switch:
		tn.restarts++
		tn.releaseGroup()
		tn.requestGroup()
	default:
		next := tn.sh.Now() + sim.Time(tn.Current().Time+dec.PlanningSeconds)
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
	maxN := 0 // the largest group any controller may request
	for i, w := range classModels {
		front := cost.NewModel(w).ParetoFrontier(grid)
		if front.Len() == 0 {
			return nil, nil, fmt.Errorf("macro-fleet: empty Pareto frontier for %s", w.Name)
		}
		cheap, fast := math.Inf(1), math.Inf(1)
		for _, p := range front.Points() {
			maxN = max(maxN, p.Alloc.N)
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
			w: w, front: front,
			offline:   predictor.NewOffline(w),
			nomEpochs: nom, cheapCost: cheap, fastTime: fast,
		}
	}

	// Build every tenant's scheduler and initial allocation first (setup is
	// deterministic in tenant order), so the account's concurrency cap can be
	// sized at 4/5 of the fleet's aggregate initial demand, and never below
	// the largest group on any class frontier: a controller may restart onto
	// any frontier point, and a group larger than the cap could never be
	// admitted. Jobs start fleetStagger apart, so the cap binds only while
	// enough of them overlap: the 48-tenant default, whose starts span 96 s,
	// sees refusals, backoff retries and a drop (its note prints denials=105
	// at seed 2023), but at bench scale (1,500 tenants, starts spread over
	// 3,000 s) the note prints denials=0.
	fleet := make([]fleetTenant, tenants)
	totalN := 0
	for t := range fleet {
		name := h.tenantName(t, tenants)
		cl := classes[t%len(classes)]
		shape := h.s.Stream(name + "/shape")
		cp := cl.w.Curve
		cp.A *= shape.LogNormal(0, 0.10) // per-tenant convergence-speed draw
		var budget, qos float64
		if t%2 == 0 {
			budget = float64(cl.nomEpochs) * cl.cheapCost * (1.2 + 0.8*shape.Float64())
		} else {
			qos = float64(cl.nomEpochs) * cl.fastTime * (1.5 + 2.5*shape.Float64())
		}
		tn := &fleet[t]
		*tn = fleetTenant{
			member: member{id: t, sh: h.shard(t)},
			Scheduler: scheduler.New(scheduler.Config{
				Frontier:     cl.front,
				Budget:       budget,
				QoS:          qos,
				TargetLoss:   cl.w.TargetLoss,
				OnlineTuning: &fleetTuning,
				Offline:      cl.offline,
				OfflineSeed:  seed ^ (uint64(t)*0x9e3779b97f4a7c15 + 1),
				Obs:          h.scope(name),
			}),
			cl:   cl,
			loss: cp.Run(h.s.Stream(name + "/loss")),
		}
		tn.epochFn = tn.epochDone
		alloc, _ := tn.Initial()
		totalN += alloc.N
	}

	ac := h.newAccount(max(maxN, totalN*4/5), fleetMaxRetry, fleetBands)
	for t := range fleet {
		tn := &fleet[t]
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
	for t := range fleet {
		tn := &fleet[t]
		budget, qos := tn.Constraint()
		ty.add(t%len(classes), nil, 1, b2f(tn.converged),
			b2f(budget > 0 && tn.spent <= budget && !tn.dropped),
			b2f(qos > 0 && tn.jct <= qos && !tn.dropped),
			float64(tn.restarts), b2f(tn.dropped), float64(tn.epoch), tn.spent)
		decisions += uint64(tn.epoch)
	}
	tab := ty.table("macro-fleet", "Macro fleet: concurrent Algorithm-2 controllers on one shared account")
	meter := ac.plat.Meter()
	tab.Notes = fmt.Sprintf(
		"%d tenants x %d model classes on one shared account (concurrency cap %d, denials=%d, account compute $%.2f); each class shares one interned Pareto frontier; controllers run the fleet tuning (window %d, warm start, refit budget %d); decisions=%d; events=%d",
		tenants, len(classes), ac.plat.Cap(), ac.retries+ac.denials, meter.Total(),
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
