// Package faas models a Lambda-like serverless platform: function
// specifications with memory-proportional CPU share, cold/warm start
// behaviour, an account-level concurrency cap, and a billing meter charging
// per invocation and per GB-second.
//
// The platform is intentionally decoupled from what the functions compute:
// the trainer decides how long a function "runs" (from the workload's compute
// model) and reports that runtime here for billing, while the platform
// contributes startup latency, concurrency admission and metering. This
// mirrors how a scheduler perceives AWS Lambda: it can only observe start
// latency, duration and the resulting bill.
package faas

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/pricing"
	"repro/internal/sim"
)

// Limits captures the platform's account limits (AWS Lambda defaults).
type Limits struct {
	MinMemoryMB    int // smallest allocatable function memory
	MaxMemoryMB    int // largest allocatable function memory
	MaxConcurrency int // account-level concurrent execution cap
}

// DefaultLimits returns AWS Lambda's published limits: 128–10240 MB memory,
// 3000 burst concurrency.
func DefaultLimits() Limits {
	return Limits{
		MinMemoryMB:    128,
		MaxMemoryMB:    10240,
		MaxConcurrency: 3000,
	}
}

// ValidateMemory reports whether memMB is an allocatable function size.
func (l Limits) ValidateMemory(memMB int) error {
	if memMB < l.MinMemoryMB || memMB > l.MaxMemoryMB {
		return fmt.Errorf("faas: memory %d MB outside [%d, %d]", memMB, l.MinMemoryMB, l.MaxMemoryMB)
	}
	return nil
}

// StartupModel parameterizes cold- and warm-start latency.
type StartupModel struct {
	ColdBase   float64 // seconds: sandbox + runtime initialization
	ColdPerGB  float64 // seconds per GB of function memory (snapshot restore)
	Warm       float64 // seconds for a warm invocation
	JitterFrac float64 // multiplicative uniform jitter on cold starts
}

// DefaultStartup returns a Lambda-like startup model: ~1.5-3 s cold starts
// for ML runtimes, ~20 ms warm starts.
func DefaultStartup() StartupModel {
	return StartupModel{ColdBase: 1.6, ColdPerGB: 0.5, Warm: 0.02, JitterFrac: 0.25}
}

// ErrConcurrencyExceeded is returned, bare, when an invocation would exceed
// the account concurrency cap. Open-loop callers are refused more often than
// admitted and only test the error, so a denial formats nothing; a caller
// that reports it adds the numbers (InFlight, Limits().MaxConcurrency, n).
var ErrConcurrencyExceeded = errors.New("faas: concurrency limit exceeded")

// ErrWarmPoolExceeded is returned when Prewarm would grow the warm pool past
// the platform's warm-environment cap.
var ErrWarmPoolExceeded = errors.New("faas: warm pool limit exceeded")

// Meter accumulates the platform bill.
type Meter struct {
	Invocations uint64
	GBSeconds   float64
	InvokeCost  float64
	ComputeCost float64
}

// Total returns the platform bill so far.
func (m *Meter) Total() float64 { return m.InvokeCost + m.ComputeCost }

// expiryQueue holds the pending warm-sandbox reclaim events for one memory
// size in schedule order. Reclaims fire in that same order — addWarm clamps
// new deadlines behind pending ones, so even a mid-run WarmTTL change cannot
// reorder them — and every path that cancels one pops it first, so both
// consuming a sandbox (takeWarm cancels the earliest reclaim) and a reclaim
// firing remove the head: O(1) pops, no identity search. The queue keeps a
// dead prefix instead of re-slicing so pushes never mutate a shared backing
// array out from under a previous slice header, and compacts once the prefix
// dominates. In the kernel the reclaims wait on the queue's own lane — they
// are scheduled in fire order, and a cancel always hits the lane's head — so
// they never enter the shard's heap, alive or canceled.
type expiryQueue struct {
	lane *sim.Lane
	evs  []sim.Event
	head int
	// lastAt is the fire time of the most recently scheduled reclaim. New
	// reclaims are clamped to fire no earlier (see addWarm), which is what
	// upholds the schedule-order invariant when WarmTTL changes mid-run.
	lastAt sim.Time
	// reclaim is the callback of every reclaim event of this queue, bound
	// once when the queue is created: a fired reclaim needs no handle to
	// itself because it is always the head.
	reclaim func()
}

func (q *expiryQueue) len() int {
	if q == nil {
		return 0
	}
	return len(q.evs) - q.head
}

func (q *expiryQueue) push(ev sim.Event) { q.evs = append(q.evs, ev) }

// popHead removes and returns the earliest pending reclaim (the zero,
// inert Event if empty).
func (q *expiryQueue) popHead() sim.Event {
	if q == nil || q.head >= len(q.evs) {
		return sim.Event{}
	}
	ev := q.evs[q.head]
	q.evs[q.head] = sim.Event{}
	q.head++
	q.maybeCompact()
	return ev
}

// maybeCompact slides pending events to the front once the dead prefix is
// both large and the majority of the slice, bounding memory at O(pending).
func (q *expiryQueue) maybeCompact() {
	if q.head >= 32 && q.head*2 >= len(q.evs) {
		n := copy(q.evs, q.evs[q.head:])
		clear(q.evs[n:])
		q.evs = q.evs[:n]
		q.head = 0
	}
}

// cancelAll cancels every pending reclaim (used by DropWarm).
func (q *expiryQueue) cancelAll() {
	if q == nil {
		return
	}
	for _, ev := range q.evs[q.head:] {
		ev.Cancel()
	}
}

// Platform is one simulated serverless region/account.
//
// A Platform is owned by one kernel shard: its clock, its expiry events and
// its startup-jitter stream all live on that shard, so independent accounts
// (one per tenant) placed on different shards can advance concurrently
// inside the kernel's lookahead windows. The default constructors bind the
// main shard, which preserves the historical single-queue behavior exactly.
type Platform struct {
	sh      *sim.Shard
	rng     *sim.Rand // startup-jitter stream, captured at construction
	limits  Limits
	startup StartupModel
	prices  pricing.PriceBook

	// WarmTTL is how long an idle sandbox survives before the platform
	// reclaims it (Lambda keeps environments warm for minutes, not hours).
	// Zero disables expiry.
	WarmTTL float64

	// WarmLimit caps the total number of warm sandboxes Prewarm may
	// provision across all memory sizes, so a planner bug cannot grow the
	// pool (and the invoice) without bound. Defaults to
	// Limits.MaxConcurrency; zero or negative disables the cap.
	WarmLimit int

	inFlight     int
	peakInFlight int
	warm         map[int]int // memory MB -> warm sandboxes available
	warmTotal    int         // sum over warm, kept for O(1) cap checks
	// expiry holds the scheduled reclaim events per memory size; each
	// release schedules one reclaim WarmTTL later, so a sandbox unused for
	// a full TTL disappears.
	expiry map[int]*expiryQueue
	meter  Meter
	obs    *obs.Observer
	// coldSpike multiplies cold-start draws while a fault schedule's
	// cold-spike window is active (see SetColdSpikeFactor); 0 means unset.
	coldSpike float64
}

// DefaultWarmTTL is the idle lifetime of a warm sandbox (10 minutes,
// Lambda-like).
const DefaultWarmTTL = 600

// New returns a platform bound to the simulation's main shard, drawing
// startup jitter from the "faas.startup" stream (the historical wiring).
func New(s *sim.Simulation, limits Limits, startup StartupModel, pb pricing.PriceBook) *Platform {
	return NewOnShard(s.Main(), "faas.startup", limits, startup, pb)
}

// NewOnShard returns a platform owned by the given kernel shard, drawing
// startup jitter from the named stream. Per-tenant accounts use one shard
// and one distinct stream name each, so every tenant's jitter sequence is
// independent of how many other tenants exist and of the shard layout.
func NewOnShard(sh *sim.Shard, randStream string, limits Limits, startup StartupModel, pb pricing.PriceBook) *Platform {
	return &Platform{
		sh: sh, rng: sh.Rand(randStream),
		limits: limits, startup: startup, prices: pb,
		WarmTTL:   DefaultWarmTTL,
		WarmLimit: limits.MaxConcurrency,
		warm:      make(map[int]int),
		expiry:    make(map[int]*expiryQueue),
	}
}

// NewDefault returns a platform with default limits, startup and prices.
func NewDefault(s *sim.Simulation) *Platform {
	return New(s, DefaultLimits(), DefaultStartup(), pricing.Default())
}

// SetObserver attaches an observability sink. Events are stamped with the
// simulation clock; a nil observer (the default) disables recording.
func (p *Platform) SetObserver(o *obs.Observer) { p.obs = o }

// Limits returns the platform's account limits.
func (p *Platform) Limits() Limits { return p.limits }

// Shard returns the kernel shard that owns this platform's clock and
// events.
func (p *Platform) Shard() *sim.Shard { return p.sh }

// Meter returns a snapshot of the bill so far.
func (p *Platform) Meter() Meter { return p.meter }

// InFlight reports how many function instances are currently admitted.
func (p *Platform) InFlight() int { return p.inFlight }

// WarmCount reports how many warm sandboxes exist for the given memory size.
func (p *Platform) WarmCount(memMB int) int { return p.warm[memMB] }

// WarmTotal reports how many warm sandboxes exist across all memory sizes.
func (p *Platform) WarmTotal() int { return p.warmTotal }

// PendingExpiries reports how many reclaim events are scheduled for the
// given memory size (test/diagnostic hook; equals WarmCount while WarmTTL
// is enabled and constant).
func (p *Platform) PendingExpiries(memMB int) int { return p.expiry[memMB].len() }

// Invocation describes one admitted function instance.
type Invocation struct {
	MemMB      int
	StartDelay float64 // cold- or warm-start latency in seconds
	Cold       bool
}

// GroupStart summarises one admitted group: how long until all of it runs,
// and how much of it started cold.
type GroupStart struct {
	StartDelay float64 // start latency of the slowest member, in seconds
	Cold       int     // members that cold-started
}

// InvokeGroup admits n concurrent functions of memMB memory, consuming warm
// sandboxes first, and charges the per-invocation fee immediately. Each
// member draws its own start latency; the group is ready after the slowest.
// The group counts against the concurrency cap until ReleaseGroup; a group
// that does not fit is refused with the bare ErrConcurrencyExceeded.
func (p *Platform) InvokeGroup(n, memMB int) (GroupStart, error) {
	if n <= 0 {
		return GroupStart{}, fmt.Errorf("faas: InvokeGroup with n=%d", n)
	}
	if err := p.limits.ValidateMemory(memMB); err != nil {
		return GroupStart{}, err
	}
	if p.inFlight+n > p.limits.MaxConcurrency {
		return GroupStart{}, ErrConcurrencyExceeded
	}
	p.inFlight += n
	if p.inFlight > p.peakInFlight {
		p.peakInFlight = p.inFlight
	}
	var g GroupStart
	for i := 0; i < n; i++ {
		inv := p.admit(memMB)
		g.StartDelay = max(g.StartDelay, inv.StartDelay)
		if inv.Cold {
			g.Cold++
			p.obs.Stats().Observe("faas.cold_start_s", inv.StartDelay)
		}
	}
	if p.obs.Enabled() {
		st := p.obs.Stats()
		st.Add("faas.invocations", float64(n))
		st.Add("faas.cold_starts", float64(g.Cold))
		st.Add("faas.warm_starts", float64(n-g.Cold))
		st.Add("faas.invoke_cost", float64(n)*p.prices.FunctionInvoke)
		st.Set("faas.in_flight", float64(p.inFlight))
		st.SetMax("faas.in_flight_peak", float64(p.peakInFlight))
		st.Set("faas.warm_total", float64(p.warmTotal))
		p.obs.Trace().InstantAt(float64(p.sh.Now()), "faas", "faas", "invoke_group",
			obs.I("n", n), obs.I("mem_mb", memMB), obs.I("cold", g.Cold),
			obs.I("in_flight", p.inFlight), obs.I("cap", p.limits.MaxConcurrency))
	}
	return g, nil
}

// Invoke1 admits a single function of memMB memory: the arrival-path fast
// path of InvokeGroup(1, memMB) for trace-driven traffic, where every
// invocation is its own admission decision. Semantics are identical to
// InvokeGroup(1, memMB) — same warm-pool consumption, same jitter draw,
// same denial, same billing and observability counters — except that it
// emits no invoke_group instant, so the admit/deny round trip performs no
// heap allocation at all when observability is disabled.
func (p *Platform) Invoke1(memMB int) (Invocation, error) {
	if err := p.limits.ValidateMemory(memMB); err != nil {
		return Invocation{}, err
	}
	if p.inFlight+1 > p.limits.MaxConcurrency {
		return Invocation{}, ErrConcurrencyExceeded
	}
	p.inFlight++
	if p.inFlight > p.peakInFlight {
		p.peakInFlight = p.inFlight
	}
	inv := p.admit(memMB)
	if p.obs.Enabled() {
		p.observeInvoke1(inv)
	}
	return inv, nil
}

// admit starts one instance the caller has already counted against the
// concurrency cap: it takes a warm sandbox or draws a cold start, and meters
// the per-invocation fee. The one admission body of InvokeGroup and Invoke1.
func (p *Platform) admit(memMB int) Invocation {
	inv := Invocation{MemMB: memMB}
	if p.warm[memMB] > 0 {
		p.takeWarm(memMB)
		inv.StartDelay = p.startup.Warm
	} else {
		inv.Cold = true
		inv.StartDelay = p.coldStart(memMB)
	}
	p.meter.Invocations++
	p.meter.InvokeCost += p.prices.FunctionInvoke
	return inv
}

// observeInvoke1 records one admission in the metrics registry. Kept out of
// Invoke1's body so the hot path carries a single Enabled-gated call.
func (p *Platform) observeInvoke1(inv Invocation) {
	st := p.obs.Stats()
	st.Add("faas.invocations", 1)
	if inv.Cold {
		st.Inc("faas.cold_starts")
		st.Observe("faas.cold_start_s", inv.StartDelay)
	} else {
		st.Inc("faas.warm_starts")
	}
	st.Add("faas.invoke_cost", p.prices.FunctionInvoke)
	st.Set("faas.in_flight", float64(p.inFlight))
	st.SetMax("faas.in_flight_peak", float64(p.peakInFlight))
	st.Set("faas.warm_total", float64(p.warmTotal))
}

// takeWarm consumes one warm sandbox and cancels its pending reclaim.
func (p *Platform) takeWarm(memMB int) {
	p.warm[memMB]--
	p.warmTotal--
	// popHead on an empty queue returns the zero handle; Cancel on it is
	// a no-op.
	p.expiry[memMB].popHead().Cancel()
}

// addWarm returns sandboxes to the pool and schedules their idle reclaim.
func (p *Platform) addWarm(memMB, n int) {
	p.warm[memMB] += n
	p.warmTotal += n
	if p.WarmTTL <= 0 {
		return
	}
	q := p.expiry[memMB]
	if q == nil {
		q = &expiryQueue{lane: p.sh.NewLane()}
		q.reclaim = func() { p.reclaimHead(q, memMB) }
		p.expiry[memMB] = q
	}
	// Clamp the fire time so reclaims always fire in schedule (FIFO) order
	// even if WarmTTL was lowered mid-run: a sandbox provisioned later never
	// expires before one provisioned earlier. With a constant TTL the clamp
	// never binds (now is monotone), so steady-state behavior is unchanged.
	at := p.sh.Now() + sim.Time(p.WarmTTL)
	if at < q.lastAt {
		at = q.lastAt
	}
	q.lastAt = at
	for i := 0; i < n; i++ {
		q.push(q.lane.Schedule(at, 0, q.reclaim))
	}
}

// reclaimHead is the body of a fired reclaim event of queue q: the sandbox
// at the head has sat idle for a full TTL and leaves the pool. A head not
// due now would mean a reclaim was canceled without being popped (or popped
// without being canceled) — a bookkeeping bug, not a state to recover from.
func (p *Platform) reclaimHead(q *expiryQueue, memMB int) {
	if head := q.popHead(); head.At() != p.sh.Now() {
		panic(fmt.Sprintf("faas: %d MB reclaim fired at %v but the expiry queue head is due at %v", memMB, p.sh.Now(), head.At()))
	}
	if p.warm[memMB] > 0 {
		p.warm[memMB]--
		p.warmTotal--
	}
	if p.obs.Enabled() {
		p.obs.Stats().Inc("faas.warm_expired")
		p.obs.Stats().Set("faas.warm_total", float64(p.warmTotal))
	}
}

func (p *Platform) coldStart(memMB int) float64 {
	d := p.startup.ColdBase + p.startup.ColdPerGB*float64(memMB)/1024
	if p.startup.JitterFrac > 0 {
		d *= p.rng.Jitter(p.startup.JitterFrac)
	}
	if p.coldSpike > 1 {
		d *= p.coldSpike
	}
	return d
}

// ColdStartEstimate returns the deterministic (jitter-free) cold-start
// latency the analytical models use.
func (p *Platform) ColdStartEstimate(memMB int) float64 {
	return p.startup.ColdBase + p.startup.ColdPerGB*float64(memMB)/1024
}

// WarmStart returns the warm invocation latency.
func (p *Platform) WarmStart() float64 { return p.startup.Warm }

// ReleaseGroup ends n concurrent functions of memMB memory, billing their
// compute time (seconds each) and returning their sandboxes to the warm
// pool for later reuse.
func (p *Platform) ReleaseGroup(n, memMB int, secondsEach float64) {
	if n <= 0 {
		return
	}
	if n > p.inFlight {
		panic(fmt.Sprintf("faas: releasing %d instances with only %d in flight", n, p.inFlight))
	}
	p.inFlight -= n
	p.addWarm(memMB, n)
	p.BillCompute(n, memMB, secondsEach)
	if p.obs.Enabled() {
		p.observeReleaseGroup(n, memMB, secondsEach)
	}
}

// observeReleaseGroup records one release in the observability sinks. Kept
// out of ReleaseGroup's body so the hot path carries a single Enabled-gated
// call.
func (p *Platform) observeReleaseGroup(n, memMB int, secondsEach float64) {
	st := p.obs.Stats()
	st.Set("faas.in_flight", float64(p.inFlight))
	st.Set("faas.warm_total", float64(p.warmTotal))
	p.obs.Trace().InstantAt(float64(p.sh.Now()), "faas", "faas", "release_group",
		obs.I("n", n), obs.I("mem_mb", memMB), obs.F("seconds_each", secondsEach),
		obs.I("in_flight", p.inFlight), obs.I("warm_total", p.warmTotal))
}

// BillCompute charges compute time for n functions of memMB that each ran
// secondsEach, without touching admission state. The trainer uses this for
// per-epoch billing while instances stay admitted across epochs.
func (p *Platform) BillCompute(n, memMB int, secondsEach float64) {
	if n <= 0 || secondsEach <= 0 {
		return
	}
	cost := float64(n) * p.prices.ComputeOnlyCost(secondsEach, float64(memMB))
	p.meter.ComputeCost += cost
	gbs := float64(n) * secondsEach * float64(memMB) / 1024
	p.meter.GBSeconds += gbs
	if p.obs.Enabled() {
		p.observeBillCompute(gbs, cost)
	}
}

// observeBillCompute records one billing event in the metrics registry.
func (p *Platform) observeBillCompute(gbs, cost float64) {
	p.obs.Stats().Add("faas.gb_seconds", gbs)
	p.obs.Stats().Add("faas.compute_cost", cost)
}

// Prewarm provisions n warm sandboxes of memMB (the greedy planner pre-warms
// the next SHA stage's functions while the current stage runs). Prewarming
// charges invocation fees but no compute. The pool is capped at WarmLimit
// total sandboxes: exceeding it returns ErrWarmPoolExceeded and provisions
// nothing.
func (p *Platform) Prewarm(n, memMB int) error {
	if err := p.limits.ValidateMemory(memMB); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	if p.WarmLimit > 0 && p.warmTotal+n > p.WarmLimit {
		return fmt.Errorf("%w: %d warm + %d requested > %d",
			ErrWarmPoolExceeded, p.warmTotal, n, p.WarmLimit)
	}
	p.addWarm(memMB, n)
	p.meter.Invocations += uint64(n)
	p.meter.InvokeCost += float64(n) * p.prices.FunctionInvoke
	if p.obs.Enabled() {
		st := p.obs.Stats()
		st.Add("faas.invocations", float64(n))
		st.Add("faas.prewarmed", float64(n))
		st.Add("faas.invoke_cost", float64(n)*p.prices.FunctionInvoke)
		st.Set("faas.warm_total", float64(p.warmTotal))
		p.obs.Trace().InstantAt(float64(p.sh.Now()), "faas", "faas", "prewarm",
			obs.I("n", n), obs.I("mem_mb", memMB), obs.I("warm_total", p.warmTotal))
	}
	return nil
}

// DropWarm evicts warm sandboxes immediately and cancels their reclaims.
func (p *Platform) DropWarm(memMB int) {
	p.warmTotal -= p.warm[memMB]
	delete(p.warm, memMB)
	p.expiry[memMB].cancelAll()
	delete(p.expiry, memMB)
	if p.obs.Enabled() {
		p.obs.Stats().Set("faas.warm_total", float64(p.warmTotal))
	}
}
