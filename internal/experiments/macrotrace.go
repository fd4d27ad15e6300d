package experiments

// macro-trace is the traffic-engine macro scenario: T tenants generating
// open-loop invocation streams from internal/traffic's lazy arrival
// cursors (Poisson, bursty, diurnal, or Azure-style trace replay) against
// one shared serverless account (the admission pipeline in harness.go, with
// group size 1). macro-day synthesizes its arrivals from a closed-form
// curve and macro-fleet is decision-bound, while macro-trace generates tens
// of millions of arrivals from a stochastic process or a trace file without
// ever materializing them.
//
// Memory discipline (the headline property; `go run ./cmd/bench` measures
// peak RSS on the trace-s1 and trace-s8w2 workloads):
//
//   - Each tenant keeps exactly one pending arrival event, on the account's
//     shard one lookahead after the arrival instant. When it fires it draws
//     the tenant's next instant from the cursor, reschedules itself there,
//     and admits this arrival. Pending events and RSS are O(tenants + account concurrency
//     cap), independent of horizon and trace length: beside the arrivals
//     the kernel holds an event per admitted invocation and a reclaim per
//     warm release batch (one per warm sandbox here, where every group is
//     one function), and no canceled reclaim at all: reclaims wait on their
//     warm pool's kernel lane, and the warm start that empties the oldest
//     batch cancels its reclaim — the lane's head, which leaves at once.
//     The hops of the admission pipeline (grant, release, retry) wait in
//     lanes too, so on the benchmark's trace-s1 the one shard's heap peaks
//     at 561 entries (arrivals, completions, reports); on the heap, canceled
//     reclaims would sit out their WarmTTL and make it 35k.
//   - Measurement is streaming: per-tenant fixed-bucket latency
//     histograms (obs.Hist), running cost counters, and Jain's fairness
//     index computed at minute boundaries on shard 0. No per-invocation
//     record is ever retained.
//
// Scaling note: the registered default is 24 tenants x 0.5/s x 1800 s
// (~21.6k arrivals) so smoke tests run in milliseconds; Config.Traffic*
// (cebench -traffic-* flags) raise it.

import (
	"cmp"
	"fmt"
	"math"

	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func init() { register("macro-trace", runMacroTrace) }

const (
	traceLookahead = 5.0  // conservative window: every cross-shard Post delay
	traceReportGap = 60.0 // per-tenant fairness reports, once a minute
	traceMaxRetry  = 4    // invoke attempts per arrival before a drop

	// Per-invocation service time: LogNormal(ln 0.4, 0.6) seconds, an
	// inference-serving-like distribution with a heavy right tail.
	traceSvcMedian = 0.4
	traceSvcSigma  = 0.6

	// Priority bands (+ tenant id within each); the account's bands, the
	// arrivals' included, are traceBands.
	priTraceDone   = 6_000_000
	priTraceReport = 7_000_000
	priTraceAbsorb = 8_000_000
)

var traceBands = accountBands{release: 2_000_000, invoke: 3_000_000, retry: 4_000_000, grant: 5_000_000}

// traceTenant is one open-loop request stream: a lazy arrival cursor, the
// arrival event that walks it on the account's shard, and streaming
// per-tenant aggregates (histogram, counters, running cost) — O(1) state
// regardless of how many invocations flow through. The cursor and arrivals
// are shard-0 state; the rest is the tenant shard's.
type traceTenant struct {
	member
	cursor   traffic.Cursor
	arr, svc sim.Rand // the cursor's draws; service-time draws
	arriveFn func()

	hist   obs.Hist
	cost   float64
	window uint64 // completions since the last fairness report

	arrivals, completed, dropped, cold uint64
}

// schedule puts the arrival at instant t on the account's shard one
// lookahead later, in the account's invoke band: account.admit recovers the
// arrival instant as its clock minus the lookahead.
func (tn *traceTenant) schedule(t float64) {
	tn.ac.sh.SchedulePriority(sim.Time(t)+tn.ac.h.lookahead, tn.ac.pri.invoke+tn.id, tn.arriveFn)
}

// arrive is one arrival reaching the account: count it, schedule the
// tenant's next arrival from its cursor — at most one pending per tenant,
// ever — and admit this one.
func (tn *traceTenant) arrive() {
	tn.arrivals++
	if t, ok := tn.cursor.Next(); ok {
		tn.schedule(t)
	}
	tn.ac.admit(&tn.member)
}

// granted runs on the tenant's shard once the account admits the arrival:
// draw the service time, bill tenant-side, and schedule completion.
func (tn *traceTenant) granted(fr *invFrame) {
	tn.cold += uint64(fr.cold)
	tn.cost += pricing.FunctionInvoke
	service := tn.svc.LogNormal(math.Log(traceSvcMedian), traceSvcSigma)
	fr.held = fr.delay + service
	tn.sh.SchedulePriority(tn.sh.Now()+sim.Time(fr.held), priTraceDone+tn.id, fr.doneFn)
}

// done runs on the tenant's shard when an invocation's service completes:
// it streams the invocation into the tenant's aggregates — histogram
// bucket, counters, running cost — and hands the frame back to the account.
// Nothing per-invocation survives past the frame's release.
func (fr *invFrame) done() {
	tn := fr.m.self.(*traceTenant)
	tn.completed++
	tn.window++
	tn.hist.Observe(float64(tn.sh.Now() - fr.reqT))
	tn.cost += pricing.ComputeOnlyCost(fr.held, float64(tn.memMB))
	tn.release(fr)
}

// denied records a final denial from the account.
func (tn *traceTenant) denied() { tn.dropped++ }

// traceFairness computes Jain's fairness index over the tenants' per-minute
// completion counts at every report boundary — a streaming scalar per
// window, never a table of per-tenant history.
type traceFairness struct {
	window  []float64
	scope   *obs.Observer
	windows int
	jainSum float64
	jainMin float64
}

func (c *traceFairness) absorb(now sim.Time, completions []int) {
	for t, n := range completions {
		c.window[t] = float64(n)
	}
	j := obs.Jain(c.window)
	c.windows++
	c.jainSum += j
	c.jainMin = math.Min(c.jainMin, j)
	if c.scope != nil {
		c.scope.Trace().InstantAt(float64(now), "macro", "coordinator", "fairness",
			obs.F("jain", j), obs.I("windows", c.windows))
	}
}

func runMacroTrace(seed uint64, cfg Config) (*Table, error) {
	tab, _, err := macroTrace(seed, cfg)
	return tab, err
}

// macroTrace also returns the harness, for tests reading kernel counters.
func macroTrace(seed uint64, cfg Config) (*Table, *harness, error) {
	tenants := cmp.Or(cfg.TrafficTenants, 24)
	arrivals, err := cfg.traffic()
	if err != nil {
		return nil, nil, fmt.Errorf("macro-trace: %w", err)
	}
	kind, rate, horizon, tr := arrivals.Kind, arrivals.Rate, arrivals.Horizon, arrivals.Trace
	h := newHarness("macro-trace", seed, cfg, tenants, traceLookahead)

	// Build tenants in id order (setup is deterministic in tenant order)
	// and accumulate the fleet's expected aggregate rate so the shared cap
	// can be sized for real contention at the diurnal/bursty peaks.
	fleet := make([]*traceTenant, tenants)
	aggRate := 0.0
	for t := range fleet {
		name := h.tenantName(t, tenants)
		tc := arrivals
		switch kind {
		case traffic.TraceReplay:
			tc.Row = t % tr.Rows()
			if m := tr.Minutes(tc.Row); m > 0 {
				aggRate += float64(tr.RowTotal(tc.Row)) / (60 * float64(m))
			}
		default:
			// Per-tenant rate draw: tenants are unequal on purpose, so the
			// fairness index has something to measure.
			shape := h.s.Stream(name + "/shape")
			tc.Rate = rate * shape.LogNormal(0, 0.25)
			aggRate += tc.Rate
			if kind == traffic.Diurnal {
				// One full cycle inside the horizon, peaks staggered so the
				// aggregate still swings (a uniform stagger would cancel).
				tc.Period = horizon
				tc.Phase = horizon * float64(t) / float64(2*tenants)
			}
		}
		// Config.Validate saw only the base rate; the tenant's draw can push
		// a rate near the float64 limit to +Inf, which Cursor panics on.
		if err := tc.Validate(); err != nil {
			return nil, nil, fmt.Errorf("tenant %s: %w", name, err)
		}
		tn := &traceTenant{
			member: member{id: t, sh: h.shard(t), n: 1, memMB: 512 << (t % 3)},
			arr:    h.s.Stream(name + "/arrivals"),
			svc:    h.s.Stream(name + "/service"),
			hist:   *obs.NewHist(obs.LatencyBuckets),
		}
		tn.cursor = tc.Cursor(&tn.arr)
		tn.arriveFn = tn.arrive
		fleet[t] = tn
	}

	// Cap the shared account near the fleet's mean in-flight demand. An
	// arrival occupies the account from its admission until its release
	// posts back: two lookaheads plus startup plus service.
	meanService := traceSvcMedian * math.Exp(traceSvcSigma*traceSvcSigma/2)
	meanHeld := 2*traceLookahead + faas.WarmStart + meanService
	capacity := max(4, int(1.1*aggRate*meanHeld))
	ac := h.newAccount(capacity, traceMaxRetry, traceBands)

	fair := &traceFairness{window: make([]float64, tenants), jainMin: math.Inf(1), scope: h.scope("macro-trace/coordinator")}
	reports := h.newGather(tenants, traceReportGap, horizon, priTraceReport, priTraceAbsorb, fair.absorb)
	for _, tn := range fleet {
		tn.join(ac, tn)
		if t0, ok := tn.cursor.Next(); ok {
			tn.schedule(t0)
		}
		reports.join(tn.sh, tn.id, func() int {
			w := tn.window
			tn.window = 0
			return int(w)
		})
	}
	// Every event fired is one of: an arrival's admission, a retry, a
	// denial notice per drop, a grant, done and release per completion, the
	// expiry of each cold-started sandbox (macro-trace destroys sandboxes no
	// other way), and a report and absorb per tenant per round.
	h.ledgers = append(h.ledgers, func() error {
		var arrived, completed, dropped, cold uint64
		for _, tn := range fleet {
			arrived += tn.arrivals
			completed += tn.completed
			dropped += tn.dropped
			cold += tn.cold
		}
		if arrived != completed+dropped {
			return fmt.Errorf("arrivals %d != completed+dropped %d", arrived, completed+dropped)
		}
		want := arrived + ac.retries + dropped + 3*completed + cold + 2*uint64(tenants)*uint64(fair.windows)
		if fired := h.s.EventsFired(); fired != want {
			return fmt.Errorf("%d events fired, want %d: arrivals %d + retries %d + drops %d + 3*completed %d + cold %d + 2*tenants %d*windows %d",
				fired, want, arrived, ac.retries, dropped, completed, cold, tenants, fair.windows)
		}
		return nil
	})
	if err := h.run(); err != nil {
		return nil, nil, err
	}

	ty := newTally("class", []string{"mem-0", "mem-1", "mem-2"}, count("tenants"), fixed("memMB"),
		count("arrivals"), count("completed"), count("dropped"), count("cold"),
		quantile("p50s", 0.5), quantile("p95s", 0.95), money("cost$"))
	var invocations uint64
	for t, tn := range fleet {
		ty.add(t%3, &tn.hist, 1, float64(tn.memMB), float64(tn.arrivals), float64(tn.completed),
			float64(tn.dropped), float64(tn.cold), tn.cost)
		invocations += tn.arrivals
	}
	tab := ty.table("macro-trace", "Macro trace: open-loop traffic streams on one shared account")
	jainMean, jainMin := 1.0, 1.0
	if fair.windows > 0 {
		jainMean, jainMin = fair.jainSum/float64(fair.windows), fair.jainMin
	}
	meter := ac.plat.Meter()
	tab.Notes = fmt.Sprintf(
		"kind=%s tenants=%d rate=%g/s horizon=%gs; shared account cap %d (denials=%d retries=%d account $%.2f); jain mean=%.4f min=%.4f windows=%d; invocations=%d; events=%d",
		kind, tenants, rate, horizon, capacity, ac.denials, ac.retries,
		meter.Total(), jainMean, jainMin, fair.windows, invocations, h.s.EventsFired())
	return tab, h, nil
}
