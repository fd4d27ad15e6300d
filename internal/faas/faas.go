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
//
// The start-up latencies and the account limits are the package's constants
// and the bill is at pricing's list prices; the one value an account is
// built with is its concurrency cap, which a harness sizes per scenario.
package faas

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/pricing"
	"repro/internal/sim"
)

// AWS Lambda's published account limits: 128–10240 MB of function memory,
// 3000 burst concurrency.
const (
	MinMemoryMB    = 128   // smallest allocatable function memory
	MaxMemoryMB    = 10240 // largest allocatable function memory
	MaxConcurrency = 3000  // default account-level concurrent execution cap
)

// StragglerSigma is the per-function log-normal sigma of compute time: the
// noise the trainer draws a BSP epoch's slowest function from, and the
// penalty cost's Eq. 2 compute term assumes for it.
const StragglerSigma = 0.05

// ValidateMemory reports whether memMB is an allocatable function size.
func ValidateMemory(memMB int) error {
	if memMB < MinMemoryMB || memMB > MaxMemoryMB {
		return fmt.Errorf("faas: memory %d MB outside [%d, %d]", memMB, MinMemoryMB, MaxMemoryMB)
	}
	return nil
}

// The Lambda-like start-up model: ~1.5-3 s cold starts for ML runtimes,
// ~20 ms warm starts.
const (
	ColdBase   float64 = 1.6  // seconds: sandbox + runtime initialization
	ColdPerGB  float64 = 0.5  // seconds per GB of function memory (snapshot restore)
	WarmStart  float64 = 0.02 // seconds for a warm invocation
	JitterFrac float64 = 0.25 // multiplicative uniform jitter on cold starts
)

// ColdStartEstimate returns the deterministic (jitter-free) cold-start
// latency of a function of memMB: what a cold start takes before jitter and
// spikes, and what the analytical models charge for one.
func ColdStartEstimate(memMB int) float64 {
	return ColdBase + ColdPerGB*float64(memMB)/1024
}

// ErrConcurrencyExceeded is returned, bare, when an invocation would exceed
// the account concurrency cap. Open-loop callers are refused more often than
// admitted and only test the error, so a denial formats nothing; a caller
// that reports it adds the numbers (InFlight, Cap, n).
var ErrConcurrencyExceeded = errors.New("faas: concurrency limit exceeded")

// WarmTTL is how long, in seconds, an idle sandbox stays warm before the
// platform reclaims it (10 minutes: Lambda keeps environments warm for
// minutes, not hours).
const WarmTTL = 600

// Meter accumulates the platform bill.
type Meter struct {
	Invocations uint64
	GBSeconds   float64
	InvokeCost  float64
	ComputeCost float64
}

// Total returns the platform bill so far.
func (m *Meter) Total() float64 { return m.InvokeCost + m.ComputeCost }

// Platform is one simulated serverless region/account.
//
// A Platform is owned by one kernel shard: its clock, its reclaim events and
// its startup-jitter stream all live on that shard, so independent accounts
// (one per tenant) placed on different shards can advance concurrently
// inside the kernel's lookahead windows. NewDefault binds the main shard,
// which preserves the historical single-queue behavior exactly.
type Platform struct {
	sh  *sim.Shard
	rng sim.Rand // startup-jitter stream, owned by the platform
	cap int      // account concurrency cap

	inFlight     int
	peakInFlight int
	// pools holds one warm pool per memory size seen, sorted by size (the
	// order ReclaimWarm evicts in); see warmPool.
	pools     []*warmPool
	warmTotal int // sum of the pools' warm counts
	meter     Meter
	obs       *obs.Observer
	// coldSpike multiplies cold-start draws while a fault schedule's
	// cold-spike window is active (see SetColdSpikeFactor); 0 means unset.
	coldSpike float64
}

// NewOnShard returns a platform owned by the given kernel shard, admitting
// at most cap concurrent functions and drawing startup jitter from rng,
// which it owns from then on. Per-tenant accounts use one shard and one
// distinctly named stream each, so every tenant's jitter sequence is
// independent of how many other tenants exist and of the shard layout.
func NewOnShard(sh *sim.Shard, rng sim.Rand, cap int) *Platform {
	return &Platform{sh: sh, rng: rng, cap: cap}
}

// NewDefault returns a platform with the MaxConcurrency cap, bound to the
// simulation's main shard and drawing startup jitter from the
// "faas.startup" stream.
func NewDefault(s *sim.Simulation) *Platform {
	return NewOnShard(s.Main(), s.Stream("faas.startup"), MaxConcurrency)
}

// SetObserver attaches an observability sink. Events are stamped with the
// simulation clock; a nil observer (the default) disables recording.
func (p *Platform) SetObserver(o *obs.Observer) { p.obs = o }

// Cap returns the account's concurrency cap.
func (p *Platform) Cap() int { return p.cap }

// Shard returns the kernel shard that owns this platform's clock and
// events.
func (p *Platform) Shard() *sim.Shard { return p.sh }

// Meter returns a snapshot of the bill so far.
func (p *Platform) Meter() Meter { return p.meter }

// InFlight reports how many function instances are currently admitted.
func (p *Platform) InFlight() int { return p.inFlight }

// WarmCount reports how many warm sandboxes exist for the given memory size.
func (p *Platform) WarmCount(memMB int) int {
	n := 0
	if i, ok := p.poolIndex(memMB); ok {
		w := p.pools[i]
		for _, c := range w.counts[w.head:] {
			n += c
		}
	}
	return n
}

// WarmTotal reports how many warm sandboxes exist across all memory sizes.
func (p *Platform) WarmTotal() int { return p.warmTotal }

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
//
// Every admission is metered; a group of n > 1 also records an invoke_group
// trace instant. A single function is metered, not traced: open-loop and
// trace-driven tenants admit one function per arrival, and an instant per
// arrival would double a traced run.
func (p *Platform) InvokeGroup(n, memMB int) (GroupStart, error) {
	if n <= 0 {
		return GroupStart{}, fmt.Errorf("faas: InvokeGroup with n=%d", n)
	}
	if err := ValidateMemory(memMB); err != nil {
		return GroupStart{}, err
	}
	if p.inFlight+n > p.cap {
		return GroupStart{}, ErrConcurrencyExceeded
	}
	p.inFlight += n
	if p.inFlight > p.peakInFlight {
		p.peakInFlight = p.inFlight
	}
	// The warm members come first, as they would one by one: the pool gives
	// them up in one call, and the loop below only draws the cold members'
	// starts and adds each member's fee, so the meter and the jitter stream
	// see what n single admissions would.
	w := p.takeWarm(memMB, n)
	g := GroupStart{Cold: n - w}
	if w > 0 {
		g.StartDelay = max(g.StartDelay, WarmStart)
	}
	for i := range n {
		if i >= w {
			d := p.coldStart(memMB)
			g.StartDelay = max(g.StartDelay, d)
			p.obs.Stats().Observe("faas.cold_start_s", d)
		}
		p.meter.InvokeCost += pricing.FunctionInvoke
	}
	p.meter.Invocations += uint64(n)
	if p.obs.Enabled() {
		st := p.obs.Stats()
		st.Add("faas.invocations", float64(n))
		st.Add("faas.cold_starts", float64(g.Cold))
		st.Add("faas.warm_starts", float64(n-g.Cold))
		st.Add("faas.invoke_cost", float64(n)*pricing.FunctionInvoke)
		st.Set("faas.in_flight", float64(p.inFlight))
		st.SetMax("faas.in_flight_peak", float64(p.peakInFlight))
		st.Set("faas.warm_total", float64(p.warmTotal))
		if n > 1 {
			p.obs.Trace().InstantAt(float64(p.sh.Now()), "faas", "faas", "invoke_group",
				obs.I("n", n), obs.I("mem_mb", memMB), obs.I("cold", g.Cold),
				obs.I("in_flight", p.inFlight), obs.I("cap", p.cap))
		}
	}
	return g, nil
}

// warmPool is one memory size's warm sandboxes, held as release batches:
// each ReleaseGroup call adds one batch and schedules one reclaim for all of
// it, WarmTTL ahead, on the pool's lane. Those keys never decrease, so the
// lane fires in push order and counts[head:] lists the queued batches' live
// counts in the same order. Warm starts and evictions take from the oldest
// batch, and a batch's reclaim is canceled (Lane.CancelHead) only when its
// count reaches 0; a fired reclaim is therefore always the oldest batch's,
// and removes what is left of it. The kernel holds one event per live batch,
// never a canceled one, and none in the shard's heap.
type warmPool struct {
	p      *Platform
	memMB  int
	lane   *sim.Lane
	counts []int // counts[head:] are the live batches' counts, oldest first
	head   int
	expire func() // every reclaim's callback, bound once
}

// poolIndex finds memMB's pool in p.pools, or where it would go. A platform
// sees a handful of sizes at most (the cost grid has nine), so a scan beats
// a search.
func (p *Platform) poolIndex(memMB int) (int, bool) {
	for i, w := range p.pools {
		if w.memMB >= memMB {
			return i, w.memMB == memMB
		}
	}
	return len(p.pools), false
}

// takeWarm takes up to n warm sandboxes of memMB, oldest first, and returns
// how many it took.
func (p *Platform) takeWarm(memMB, n int) int {
	if i, ok := p.poolIndex(memMB); ok {
		return p.pools[i].take(n)
	}
	return 0
}

// take removes up to n sandboxes from the oldest batches, canceling the
// reclaim of each batch it empties, and returns how many it removed.
func (w *warmPool) take(n int) int {
	k := 0
	for ; k < n && w.head < len(w.counts); w.head++ {
		c := &w.counts[w.head]
		if *c > n-k {
			*c -= n - k
			k = n
			break
		}
		k += *c
		w.lane.CancelHead()
	}
	w.p.warmTotal -= k
	return k
}

// addWarm returns n sandboxes to memMB's pool as one batch: one reclaim,
// WarmTTL ahead.
func (p *Platform) addWarm(memMB, n int) {
	i, ok := p.poolIndex(memMB)
	if !ok {
		w := &warmPool{p: p, memMB: memMB, lane: p.sh.NewLane()}
		w.expire = w.expireOldest
		p.pools = slices.Insert(p.pools, i, w)
	}
	w := p.pools[i]
	if w.head == len(w.counts) {
		w.counts, w.head = w.counts[:0], 0
	} else if w.head*2 >= len(w.counts) {
		// Slide over the consumed prefix once it has reached the live
		// batches' number, as Lane does: the buffer stops growing once it
		// has held its longest queue.
		w.counts = w.counts[:copy(w.counts, w.counts[w.head:])]
		w.head = 0
	}
	w.counts = append(w.counts, n)
	w.lane.Schedule(p.sh.Now()+WarmTTL, 0, w.expire)
	p.warmTotal += n
}

// expireOldest is the body of a fired reclaim: the oldest batch has sat
// idle for WarmTTL and what is left of it leaves the pool. The kernel has
// already taken the reclaim off the lane.
func (w *warmPool) expireOldest() {
	k := w.counts[w.head]
	w.head++
	p := w.p
	p.warmTotal -= k
	if p.obs.Enabled() {
		p.obs.Stats().Add("faas.warm_expired", float64(k))
		p.obs.Stats().Set("faas.warm_total", float64(p.warmTotal))
	}
}

func (p *Platform) coldStart(memMB int) float64 {
	d := ColdStartEstimate(memMB) * p.rng.Jitter(JitterFrac)
	if p.coldSpike > 1 {
		d *= p.coldSpike
	}
	return d
}

// ReleaseGroup ends n concurrent functions of memMB memory, billing their
// compute time (seconds each) and returning their sandboxes to the warm
// pool, as one batch with one reclaim, for later reuse.
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
// secondsEach, without touching admission state, and returns the dollars
// it metered (nothing when n or secondsEach is not positive). The trainer
// uses this for per-epoch billing while instances stay admitted across
// epochs, and adds the returned charge to its result.
func (p *Platform) BillCompute(n, memMB int, secondsEach float64) float64 {
	if n <= 0 || secondsEach <= 0 {
		return 0
	}
	cost := float64(n) * pricing.ComputeOnlyCost(secondsEach, float64(memMB))
	p.meter.ComputeCost += cost
	gbs := float64(n) * secondsEach * float64(memMB) / 1024
	p.meter.GBSeconds += gbs
	if p.obs.Enabled() {
		p.observeBillCompute(gbs, cost)
	}
	return cost
}

// observeBillCompute records one billing event in the metrics registry.
func (p *Platform) observeBillCompute(gbs, cost float64) {
	p.obs.Stats().Add("faas.gb_seconds", gbs)
	p.obs.Stats().Add("faas.compute_cost", cost)
}
