package experiments

// The tenant harness behind the four multi-tenant macro scenarios
// (macro-day, macro-chaos, macro-trace, macro-fleet): Config, the harness
// itself (kernel, placement, run() with its conservation checks), the
// shared-account admission pipeline, the open-loop tenant, the report ->
// absorb barrier and the per-group tally, each written once. The scenario
// files hold only what differs: constants, priority bands, the policy run at
// each barrier, and the table's columns and note. Every event that can share
// a timestamp with another tenant's event carries a globally unique priority
// (band + tenant id), so tables, traces and metrics are byte-identical at
// every (shards, workers) setting; see DESIGN.md "Tenant harness".

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Config is everything a run depends on besides its id and seed. The zero
// value is the registered defaults; cmd/cebench fills it from its flags.
// Paper artifacts read Parallel and Collector only; the other fields size
// and shard the macro scenarios.
type Config struct {
	// Parallel bounds the workers RunAll spreads artifacts over, and each
	// artifact its cells (0 = GOMAXPROCS, 1 = fully serial). Output is
	// byte-identical at every setting.
	Parallel int
	// Collector, when set, receives every executed cell's trace and metrics
	// under a scope named after the artifact and cell ("fig12/LR-YFCC/Siren").
	// Concurrent runs need a collector each.
	Collector *obs.Collector

	// Shards and Workers configure the sharded kernel: shard count and
	// concurrent shards per conservative window (0 = 8 and 1). Output is
	// byte-identical at every setting; only wall-clock time changes.
	Shards, Workers int

	MacroTenants, MacroPerTenant int // macro-day population (0 = 32 x 1500)
	ChaosTenants, ChaosPerTenant int // macro-chaos population (0 = 24 x 1000)
	FleetTenants                 int // macro-fleet controllers (0 = 48)

	TrafficTenants int     // macro-trace streams (0 = 24)
	TrafficRate    float64 // mean arrivals/second per stream (0 = 0.5)
	TrafficHorizon float64 // simulated seconds (0 = 1800)
	TrafficKind    string  // poisson|bursty|diurnal|trace ("" = diurnal)
	// Trace is the parsed per-minute-count file kind "trace" replays, rows
	// round-robin across tenants.
	Trace traffic.Trace
}

// traffic resolves the macro-trace arrival process common to all tenants.
func (c Config) traffic() (traffic.Config, error) {
	kind := traffic.Diurnal
	if c.TrafficKind != "" {
		var err error
		if kind, err = traffic.ParseKind(c.TrafficKind); err != nil {
			return traffic.Config{}, err
		}
	}
	tc := traffic.Config{Kind: kind, Rate: cmp.Or(c.TrafficRate, 0.5), Horizon: cmp.Or(c.TrafficHorizon, 1800), Trace: c.Trace}
	if kind == traffic.TraceReplay && c.Trace.Rows() == 0 {
		return tc, fmt.Errorf("traffic kind trace needs trace data (cebench -trace-file)")
	}
	return tc, tc.Validate()
}

// Validate rejects configurations no scenario can run: negative counts, a
// non-finite or negative rate or horizon, an unknown arrival kind, kind
// "trace" without trace rows, or a base traffic config that
// traffic.Config.Validate refuses (a rate whose peak overflows, say).
func (c Config) Validate() error {
	for _, n := range []struct {
		name string
		v    int
	}{
		{"parallel", c.Parallel}, {"shards", c.Shards}, {"workers", c.Workers},
		{"macro-day tenants", c.MacroTenants}, {"macro-day arrivals per tenant", c.MacroPerTenant},
		{"macro-chaos tenants", c.ChaosTenants}, {"macro-chaos arrivals per tenant", c.ChaosPerTenant},
		{"macro-fleet tenants", c.FleetTenants}, {"macro-trace tenants", c.TrafficTenants},
	} {
		if n.v < 0 {
			return fmt.Errorf("experiments: %s %d is negative", n.name, n.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"rate", c.TrafficRate}, {"horizon", c.TrafficHorizon}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("experiments: macro-trace %s %v must be finite and non-negative", f.name, f.v)
		}
	}
	if _, err := c.traffic(); err != nil {
		return fmt.Errorf("experiments: macro-trace: %w", err)
	}
	return nil
}

// harness is one scenario run's substrate: the sharded kernel, the tenant
// naming and placement rules, and the conservation checks run() applies
// once the event queue drains.
type harness struct {
	id        string
	s         *sim.Simulation
	shards    int
	lookahead sim.Time // every cross-shard Post travels at least this long
	collector *obs.Collector
	plats     []*faas.Platform
	ledgers   []func() error
}

// newHarness shards the kernel for a scenario of `tenants` tenants. Tenant t
// lives on shard t % shards, so shards beyond the population could never hold
// an event — yet every lookahead window visits every shard — and the count is
// clamped to it; placement is the same either way. The lookahead is the
// minimum delay of any cross-shard Post.
func newHarness(id string, seed uint64, cfg Config, tenants int, lookahead float64) *harness {
	h := &harness{id: id, s: sim.New(seed),
		shards: max(1, min(cmp.Or(cfg.Shards, 8), tenants)), lookahead: sim.Time(lookahead), collector: cfg.Collector}
	h.s.EnsureShards(h.shards)
	h.s.SetWorkers(cmp.Or(cfg.Workers, 1))
	h.s.SetLookahead(lookahead)
	return h
}

// tenantName is tenant t's scope and rand-stream prefix.
func (h *harness) tenantName(t, tenants int) string { return obs.ScopeName(h.id, "t", t, tenants) }

// shard places tenant t; shard 0 also owns every shared resource.
func (h *harness) shard(t int) *sim.Shard { return h.s.Shard(t % h.shards) }

// scope is the observer named name, or nil with collection off.
func (h *harness) scope(name string) *obs.Observer { return h.collector.Scope(name) }

// platform builds a serverless account capped at capacity concurrent
// functions, owned by kernel shard `shard`, drawing startup jitter from its
// own stream and observed under name.
func (h *harness) platform(name string, shard, capacity int) *faas.Platform {
	p := faas.NewOnShard(h.s.Shard(shard), h.s.Stream("faas.startup/"+name), capacity)
	p.SetObserver(h.scope(name))
	h.plats = append(h.plats, p)
	return p
}

// run drains the event queue and then checks conservation: nothing
// pending, nothing in flight on any platform, and every ledger the
// scenario's parts registered balances.
func (h *harness) run() error {
	h.s.Run()
	if n := h.s.Pending(); n != 0 {
		return fmt.Errorf("%s: %d events still pending after Run", h.id, n)
	}
	for i, p := range h.plats {
		if n := p.InFlight(); n != 0 {
			return fmt.Errorf("%s: platform %d has %d functions in flight after Run", h.id, i, n)
		}
	}
	for _, balanced := range h.ledgers {
		if err := balanced(); err != nil {
			return fmt.Errorf("%s: ledger: %w", h.id, err)
		}
	}
	return nil
}

// --- shared-account admission pipeline ---

// accountBands are the priority bands (+ tenant id within each) of the
// admission pipeline's shard-crossing events. Releases sort before invokes
// so capacity freed at an instant is visible to that instant's requests.
type accountBands struct{ release, invoke, retry, grant int }

// account is a serverless account shared by every tenant, on shard 0.
// Every Invoke and Release call happens inside a shard-0 event, so the
// platform's warm pool, meter and concurrency gate mutate in one
// deterministic order.
type account struct {
	h        *harness
	sh       *sim.Shard
	plat     *faas.Platform
	pri      accountBands
	maxRetry int // admission attempts per request before a final denial
	// retry[k] carries the retries after k+1 refusals: each waits L·2^k, so a
	// class is scheduled in fire order and rides a kernel lane.
	retry  []*sim.Lane
	free   *invFrame // frame pool; get/put only inside shard-0 events
	frames int       // frames ever allocated
	// denials counts requests finally refused, retries the refused attempts
	// before that.
	denials, retries uint64
}

// newAccount builds the shared account "<id>/account" and registers its
// ledger: after the run every frame is back in the pool.
func (h *harness) newAccount(capacity, maxRetry int, pri accountBands) *account {
	plat := h.platform(h.id+"/account", 0, capacity)
	ac := &account{h: h, sh: plat.Shard(), plat: plat, pri: pri, maxRetry: maxRetry}
	for range maxRetry - 1 {
		ac.retry = append(ac.retry, ac.sh.NewLane())
	}
	h.ledgers = append(h.ledgers, func() error {
		pooled := 0
		for fr := ac.free; fr != nil; fr = fr.next {
			pooled++
		}
		if pooled != ac.frames {
			return fmt.Errorf("%d of %d admission frames back in the pool", pooled, ac.frames)
		}
		return nil
	})
	return ac
}

// accountTenant is the tenant side of the pipeline, called on the tenant's
// own shard one lookahead after the account decided.
type accountTenant interface {
	// granted receives the admitted group: fr.delay and fr.cold are set, and
	// the tenant keeps fr until it hands it back with member.release.
	granted(fr *invFrame)
	// denied reports that the account refused the request maxRetry times.
	denied()
}

// member is one tenant's seat at the shared account, embedded in the tenant
// type: identity, home shard, and the group its next request asks for.
type member struct {
	id       int
	sh       *sim.Shard
	ac       *account
	n, memMB int // group size and memory of the next request
	self     accountTenant

	admitFn, deniedFn func() // bound once, so a request allocates nothing
}

func (m *member) join(ac *account, self accountTenant) {
	m.ac, m.self = ac, self
	m.admitFn = func() { ac.admit(m) }
	m.deniedFn = self.denied
}

// request posts an admission request for the member's (n, memMB) group. The
// post travels exactly one lookahead, so the account recovers the request
// instant from its own clock — no per-request closure.
func (m *member) request() {
	m.sh.Post(m.ac.sh, m.sh.Now()+m.ac.h.lookahead, m.ac.pri.invoke+m.id, m.admitFn)
}

// release hands a granted group back to the account after fr.held seconds
// of use each; the frame is recycled on shard 0.
func (m *member) release(fr *invFrame) {
	m.sh.Post(m.ac.sh, m.sh.Now()+m.ac.h.lookahead, m.ac.pri.release+m.id, fr.releaseFn)
}

// invFrame carries one request through admit -> grant -> done -> release.
// Frames are pooled on the account (acquired at admission, freed at release
// or final denial — both shard-0 events) and their stage closures are bound
// once at construction, so the steady-state pipeline performs zero heap
// allocations. A frame is only ever touched by its own causally ordered
// event chain; cross-shard hops go through sim.Post, whose mailbox handoff
// orders the memory accesses.
type invFrame struct {
	ac       *account
	m        *member
	n, memMB int
	reqT     sim.Time // the request instant, one lookahead before admission
	attempt  int      // admission attempts already made
	delay    float64  // startup delay of the granted group (its slowest member)
	cold     int      // cold starts in the granted group
	held     float64  // seconds each function was held, set by the tenant before release

	// doneFn is the tenant's to schedule between grant and release: an
	// open-loop stream's completion event (macrotrace.go). Closed-loop
	// tenants run their own epoch loop instead.
	invokeFn, grantFn, doneFn, releaseFn func()
	next                                 *invFrame
}

func (ac *account) get() *invFrame {
	fr := ac.free
	if fr == nil {
		return newInvFrame(ac)
	}
	ac.free = fr.next
	return fr
}

// newInvFrame allocates a fresh frame and binds its stage closures once; it
// runs only while the in-flight count is still climbing to its high-water
// mark, after which every request reuses a pooled frame.
func newInvFrame(ac *account) *invFrame {
	fr := &invFrame{ac: ac}
	fr.invokeFn = fr.invoke
	fr.grantFn = fr.grant
	fr.doneFn = fr.done
	fr.releaseFn = fr.release
	ac.frames++
	return fr
}

func (ac *account) put(fr *invFrame) {
	fr.m = nil
	fr.next = ac.free
	ac.free = fr
}

// admit starts one request's admission on shard 0.
func (ac *account) admit(m *member) {
	fr := ac.get()
	fr.m, fr.n, fr.memMB = m, m.n, m.memMB
	fr.reqT = ac.sh.Now() - ac.h.lookahead
	fr.attempt = 0
	fr.invoke()
}

// invoke tries to admit the frame's group, retrying shard-0-locally with
// deterministic exponential backoff while the account is at its cap; the
// grant (or final denial) posts back to the tenant's shard one lookahead
// later.
func (fr *invFrame) invoke() {
	ac, m := fr.ac, fr.m
	g, err := ac.plat.InvokeGroup(fr.n, fr.memMB)
	fr.delay, fr.cold = g.StartDelay, g.Cold
	now := ac.sh.Now()
	switch {
	case err == nil:
		ac.sh.Post(m.sh, now+ac.h.lookahead, ac.pri.grant+m.id, fr.grantFn)
	case fr.attempt+1 >= ac.maxRetry:
		ac.denials++
		ac.sh.Post(m.sh, now+ac.h.lookahead, ac.pri.grant+m.id, m.deniedFn)
		ac.put(fr)
	default:
		ac.retries++
		at := now + sim.Time(math.Ldexp(float64(ac.h.lookahead), fr.attempt))
		ac.retry[fr.attempt].Schedule(at, ac.pri.retry+m.id, fr.invokeFn)
		fr.attempt++
	}
}

// grant runs on the tenant's shard once the account admits the group.
func (fr *invFrame) grant() { fr.m.self.granted(fr) }

// release runs on shard 0: return the capacity and warm instances to the
// account, then recycle the frame.
func (fr *invFrame) release() {
	fr.ac.plat.ReleaseGroup(fr.n, fr.memMB, fr.held)
	fr.ac.put(fr)
}

// --- open-loop tenant on its own platform ---

const (
	macroDay      = 86400.0             // one simulated day, seconds
	macroMaxRetry = 3                   // invocation attempts before a drop
	diurnalAmp    = 0.5 / (2 * math.Pi) // a of arrivalAt's curve

	// Priority bands of the open-loop scenarios. Every minute-aligned event
	// class gets a band and every tenant a distinct priority within it, so
	// simultaneous events always differ in (time, priority) and each shard's
	// firing order is independent of shard count. Lower fires first: a shed
	// directive issued at the previous barrier applies before this round's
	// absorbs are processed, and a fault landing exactly on a report or
	// completion timestamp fires after it. Arrivals, retries and completions
	// use the bare tenant id.
	priShed   = 500_000
	priReport = 1_000_000
	priAbsorb = 2_000_000
	priFault  = 3_000_000
)

// callFrame carries one arrival through try -> retry* -> done | drop | kill.
// Frames are pooled per tenant with their stage closures bound once, the
// invFrame idiom, so a steady-state arrival allocates nothing. A frame
// belongs to exactly one of: its pending retry event, the live record (ev is
// then its pending completion), or the free list.
type callFrame struct {
	tn            *openTenant
	attempt       int     // admission attempts already made
	service       float64 // drawn at admission
	ev            sim.Event
	pooled        bool
	tryFn, doneFn func()
	next          *callFrame
}

// openTenant is one serverless account driven open-loop: perTenant
// arrivals on a closed-form diurnal curve over one simulated day against
// the tenant's own platform (concurrency cap, warm pool, meter), with a
// locally jittered retry, periodic checkpoints through a fault-injectable
// storage gate, and the hooks a fault.Schedule compiles onto.
// All of it is owned by a single kernel shard.
type openTenant struct {
	h     *harness
	id    int
	memMB int
	plat  *faas.Platform
	sh    *sim.Shard
	arr   sim.Rand // arrival-time jitter
	svc   sim.Rand // service-time draws
	rty   sim.Rand // retry backoff jitter

	ckptGate  fault.Gate // private brownout error gate in front of checkpoint storage
	ckptRate  float64    // the active brownout's error rate (0 = none)
	ckptEvery uint64     // checkpoint cadence, in completions

	perTenant int
	arrived   int     // arrivals handled; the pending arrival's index
	phase     float64 // diurnal peak offset, tenant-specific
	g0        float64 // a*cos(phase): the curve's offset making g(0) = 0
	shedUntil sim.Time
	shedDur   sim.Time // how long one shed directive stops admission
	strag     float64  // active straggler factor (1 = none)
	arriveFn  func()
	shedFn    func()
	// live mirrors the platform's in-flight set in admission order, so a
	// kill can cancel exactly the victims' completions and nothing that
	// already fired.
	live   []*callFrame
	free   *callFrame // frame pool
	frames int        // frames ever allocated

	completed, killed, reclaimed, retried, shed, dropped, cold uint64
	ckptPuts, ckptRetries, ckptDropped                         uint64
}

var lnMeanService = math.Log(40) // mu of the LogNormal(ln 40, 0.5) service time

// openFleet builds the open-loop tenants of a scenario, each on its own
// platform capped near its mean in-flight load so the diurnal peak produces
// real contention (retries, drops) at any scale, and registers their
// ledger: every arrival ends completed, shed or dropped, no call is left in
// a live record, and every call frame is back on its tenant's free list. A
// shed directive stops a tenant's admission for shedDur seconds.
func (h *harness) openFleet(tenants, perTenant int, ckptEvery uint64, shedDur float64) (fleet []*openTenant, perCap int) {
	meanService := 40 * math.Exp(0.5*0.5/2) // LogNormal(ln 40, 0.5) mean
	perCap = max(2, int(float64(perTenant)*meanService/macroDay))
	fleet = make([]*openTenant, tenants)
	for t := range fleet {
		name := h.tenantName(t, tenants)
		plat := h.platform(name, t%h.shards, perCap)
		tn := &openTenant{
			h: h, id: t, memMB: 512 << (t % 3), plat: plat, sh: plat.Shard(),
			arr: h.s.Stream(name + "/arrivals"), svc: h.s.Stream(name + "/service"), rty: h.s.Stream(name + "/retry"),
			ckptEvery: ckptEvery, shedDur: sim.Time(shedDur),
			perTenant: perTenant, phase: 2 * math.Pi * float64(t) / float64(tenants), strag: 1,
		}
		tn.g0 = diurnalAmp * math.Cos(tn.phase)
		tn.arriveFn = tn.arrive
		tn.shedFn = func() { tn.shedUntil = tn.sh.Now() + tn.shedDur }
		fleet[t] = tn
	}
	h.ledgers = append(h.ledgers, func() error {
		var settled uint64
		for _, tn := range fleet {
			settled += tn.completed + tn.shed + tn.dropped
			if len(tn.live) != 0 {
				return fmt.Errorf("tenant %d: %d calls left in the live record", tn.id, len(tn.live))
			}
			if pooled := tn.pooled(); pooled != tn.frames {
				return fmt.Errorf("tenant %d: %d of %d call frames back on the free list", tn.id, pooled, tn.frames)
			}
		}
		if want := uint64(tenants) * uint64(perTenant); settled != want {
			return fmt.Errorf("completed+shed+dropped = %d, want %d arrivals", settled, want)
		}
		return nil
	})
	return fleet, perCap
}

// start compiles the tenant's fault schedule (nil = none) onto its shard
// and schedules its first arrival; it returns the fault events compiled.
func (tn *openTenant) start(faults *fault.Schedule) int {
	n := fault.Compile(faults, tn.sh, priFault+tn.id, fault.Ops{
		Kill:      tn.kill,
		Reclaim:   func(n int) { tn.reclaimed += uint64(tn.plat.ReclaimWarm(n)) },
		Straggler: func(f float64) { tn.strag = f },
		Brownout:  func(_, errRate float64) { tn.ckptRate = errRate },
		ColdSpike: tn.plat.SetColdSpikeFactor,
	})
	tn.sh.SchedulePriority(tn.arrivalAt(0), tn.id, tn.arriveFn)
	return n
}

// arrivalAt returns the k-th arrival time: stratified uniform positions
// (k+u)/N warped by a monotone diurnal curve g(pos) = pos - a*cos(2*pi*pos
// + phi) + a*cos(phi) with a = 0.5/(2*pi), so the instantaneous rate swings
// between 0.5x and 1.5x of the mean while arrivals stay strictly ordered
// (g' = 1 + 0.5*sin(...) > 0) and g(0) = 0.
func (tn *openTenant) arrivalAt(k int) sim.Time {
	pos := (float64(k) + tn.arr.Float64()) / float64(tn.perTenant)
	g := pos - diurnalAmp*math.Cos(2*math.Pi*pos+tn.phase) + tn.g0
	return sim.Time(macroDay * g)
}

// arrive handles the pending arrival: it schedules the next one (keeping at
// most one pending arrival per tenant in the heap) and admits this one
// unless a shed directive is in force.
func (tn *openTenant) arrive() {
	if tn.arrived++; tn.arrived < tn.perTenant {
		tn.sh.SchedulePriority(tn.arrivalAt(tn.arrived), tn.id, tn.arriveFn)
	}
	if tn.sh.Now() < tn.shedUntil {
		tn.shed++
		return
	}
	tn.getCall().try()
}

// getCall takes a frame for a fresh first attempt; it allocates only while
// the tenant's calls outstanding are still climbing to their high-water mark.
func (tn *openTenant) getCall() *callFrame {
	fr := tn.free
	if fr == nil {
		fr = &callFrame{tn: tn}
		fr.tryFn, fr.doneFn = fr.try, fr.done
		tn.frames++
		return fr
	}
	tn.free, fr.pooled, fr.attempt = fr.next, false, 0
	return fr
}

func (tn *openTenant) putCall(fr *callFrame) {
	if fr.pooled {
		panic(fmt.Sprintf("experiments: tenant %d: call frame pooled twice", tn.id))
	}
	fr.pooled, fr.next = true, tn.free
	tn.free = fr
}

func (tn *openTenant) pooled() (n int) {
	for fr := tn.free; fr != nil; fr = fr.next {
		n++
	}
	return n
}

// try asks the platform for one function: a denial retries after a jittered
// exponential backoff or, on the last attempt, drops the call; an admission
// lists the call as live until its completion fires or a kill cancels it.
func (fr *callFrame) try() {
	tn := fr.tn
	g, err := tn.plat.InvokeGroup(1, tn.memMB)
	if err != nil {
		if fr.attempt+1 >= macroMaxRetry {
			tn.dropped++
			tn.putCall(fr)
			return
		}
		tn.retried++
		backoff := sim.Duration(math.Ldexp(0.5, fr.attempt) * tn.rty.Jitter(0.2))
		fr.attempt++
		tn.sh.SchedulePriority(tn.sh.Now()+sim.Time(backoff), tn.id, fr.tryFn)
		return
	}
	tn.cold += uint64(g.Cold)
	fr.service = tn.svc.LogNormal(lnMeanService, 0.5) * tn.strag
	fr.ev = tn.sh.SchedulePriority(tn.sh.Now()+sim.Time(g.StartDelay+fr.service), tn.id, fr.doneFn)
	tn.live = append(tn.live, fr)
}

// done is the call's completion. It drops itself from the live record first
// thing, so entries still listed are always pending.
func (fr *callFrame) done() {
	tn := fr.tn
	i := slices.Index(tn.live, fr)
	tn.live = slices.Delete(tn.live, i, i+1)
	tn.plat.ReleaseGroup(1, tn.memMB, fr.service)
	tn.completed++
	if tn.completed%tn.ckptEvery == 0 {
		tn.checkpoint()
	}
	tn.putCall(fr)
}

// kill terminates the n most recently admitted in-flight requests: the
// platform drops them from its in-flight count, their completion events are
// cancelled (still pending by the live-record invariant; at an equal
// timestamp the completion's lower priority fires first and removes
// itself) and their frames pooled, and each client re-submits immediately
// as a fresh attempt.
func (tn *openTenant) kill(n int) {
	n = min(n, len(tn.live))
	if n <= 0 {
		return
	}
	tn.plat.KillSandboxes(n)
	keep := len(tn.live) - n
	for _, fr := range tn.live[keep:] {
		fr.ev.Cancel()
		tn.putCall(fr)
	}
	tn.live = tn.live[:keep]
	tn.killed += uint64(n)
	for range n {
		tn.getCall().try()
	}
}

// checkpoint writes through the tenant's brownout gate under the bounded
// retry policy: a failed attempt writes nothing, and exhaustion drops this
// checkpoint and carries on — the serving path must degrade gracefully,
// never abort.
func (tn *openTenant) checkpoint() {
	for attempt := 0; attempt < fault.MaxAttempts; attempt++ {
		if !tn.ckptGate.Fail(tn.ckptRate) {
			tn.ckptPuts++
			return
		}
		tn.ckptRetries++
	}
	tn.ckptDropped++
}

// shedFor is a shard-0 directive: stop admitting for the tenant's shed
// duration, starting one lookahead after now. The bound shedFn runs on the
// tenant's shard, so the directive allocates nothing and shard 0 writes no
// tenant state.
func (tn *openTenant) shedFor(now sim.Time) {
	tn.h.s.Shard(0).Post(tn.sh, now+tn.h.lookahead, priShed+tn.id, tn.shedFn)
}

// --- report -> absorb barrier ---

// gather is the periodic barrier the scenarios' control loops hang off:
// every gap seconds each tenant samples a value on its own shard and posts
// it to shard 0, arriving exactly one lookahead later; when all tenants'
// values of a round have arrived, policy runs on shard 0 with the round's
// values in tenant order.
type gather struct {
	h                    *harness
	gap, until           sim.Time
	priReport, priAbsorb int
	vals                 []int
	seen                 int
	policy               func(now sim.Time, vals []int)
}

func (h *harness) newGather(tenants int, gap, until float64, priReport, priAbsorb int, policy func(now sim.Time, vals []int)) *gather {
	return &gather{h: h, gap: sim.Time(gap), until: sim.Time(until), priReport: priReport, priAbsorb: priAbsorb,
		vals: make([]int, tenants), policy: policy}
}

// join schedules tenant id's reports at gap, 2*gap, ... while <= until. The
// report and absorb callbacks are bound here, once, so a round allocates
// nothing. The sample in flight to shard 0 sits in vals[round&1]: a slot is
// read one lookahead after it was written and rewritten two gaps after, and
// every gap is at least a lookahead, so the tenant shard's write and shard
// 0's read never share a kernel window.
func (g *gather) join(sh *sim.Shard, id int, sample func() int) {
	var (
		at     sim.Time // the pending report's instant
		round  int
		vals   [2]int
		report func()
	)
	absorb := [2]func(){func() { g.absorb(id, vals[0]) }, func() { g.absorb(id, vals[1]) }}
	schedule := func() {
		if at += g.gap; at <= g.until {
			sh.SchedulePriority(at, g.priReport+id, report)
		}
	}
	report = func() {
		slot := round & 1
		round++
		vals[slot] = sample()
		sh.Post(g.h.s.Shard(0), at+g.h.lookahead, g.priAbsorb+id, absorb[slot])
		schedule()
	}
	schedule()
}

func (g *gather) absorb(id, v int) {
	g.vals[id] = v
	if g.seen++; g.seen < len(g.vals) {
		return
	}
	g.seen = 0
	g.policy(g.h.s.Shard(0).Now(), g.vals)
}

// --- per-group tally ---

// column is one table column after the group label.
type column struct {
	name string
	kind byte // 'n' count, '$' dollars, '=' per-group constant, 'q' latency quantile
	q    float64
}

func count(name string) column { return column{name: name, kind: 'n'} }

// money is a dollar sum, rendered %.4f.
func money(name string) column { return column{name: name, kind: '$'} }

// fixed is a per-group constant; TOTAL shows "-".
func fixed(name string) column { return column{name: name, kind: '='} }

// quantile is the q-quantile of the group's merged latency histogram.
func quantile(name string, q float64) column { return column{name: name, kind: 'q', q: q} }

// tally accumulates one row per tenant group plus TOTAL. Tenants are added
// in tenant order and TOTAL sums the groups in group order, so every float
// sum has a fixed term order whatever the shard layout.
type tally struct {
	label  string // header of the group column
	groups []string
	cols   []column
	cells  [][]float64 // [group][column]
	hists  []obs.Hist  // [group], for 'q' columns
}

func newTally(label string, groups []string, cols ...column) *tally {
	ty := &tally{label: label, groups: groups, cols: cols}
	for range groups {
		ty.cells = append(ty.cells, make([]float64, len(ty.cols)))
		ty.hists = append(ty.hists, *obs.NewHist(obs.LatencyBuckets))
	}
	return ty
}

// add accumulates one tenant into group g: one value per non-quantile
// column in column order, and the tenant's latency histogram if it has one.
func (ty *tally) add(g int, hist *obs.Hist, vals ...float64) {
	i := 0
	for c, col := range ty.cols {
		switch col.kind {
		case 'q':
			continue
		case '=':
			ty.cells[g][c] = vals[i]
		default:
			ty.cells[g][c] += vals[i]
		}
		i++
	}
	if hist != nil {
		ty.hists[g].Merge(hist)
	}
}

func (ty *tally) row(label string, cells []float64, hist *obs.Hist, total bool) []string {
	row := []string{label}
	for c, col := range ty.cols {
		switch {
		case col.kind == 'q':
			row = append(row, qstr(hist.Quantile(col.q)))
		case col.kind == '$':
			row = append(row, f4(cells[c]))
		case col.kind == '=' && total:
			row = append(row, "-")
		default:
			row = append(row, strconv.FormatUint(uint64(cells[c]), 10))
		}
	}
	return row
}

// table renders the group rows and TOTAL under the scenario's title.
func (ty *tally) table(id, title string) *Table {
	tab := &Table{ID: id, Title: title, Headers: []string{ty.label}}
	for _, col := range ty.cols {
		tab.Headers = append(tab.Headers, col.name)
	}
	total := make([]float64, len(ty.cols))
	totalHist := obs.NewHist(obs.LatencyBuckets)
	for g, label := range ty.groups {
		tab.Rows = append(tab.Rows, ty.row(label, ty.cells[g], &ty.hists[g], false))
		for c := range total {
			total[c] += ty.cells[g][c]
		}
		totalHist.Merge(&ty.hists[g])
	}
	tab.Rows = append(tab.Rows, ty.row("TOTAL", total, totalHist, true))
	return tab
}

// qstr renders a conservative histogram quantile (a bucket upper bound).
func qstr(v float64) string {
	if math.IsInf(v, 1) {
		return fmt.Sprintf(">%g", obs.LatencyBuckets[len(obs.LatencyBuckets)-1])
	}
	return fmt.Sprintf("%g", v)
}
