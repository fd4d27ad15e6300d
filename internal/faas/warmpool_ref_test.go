package faas

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/pricing"
	"repro/internal/sim"
)

// refPlatform is the per-sandbox warm pool that the batch pool replaced,
// kept verbatim apart from its names, its account limits (the package's
// constants and a cap), the cold-spike factor and the observability calls
// the comparison does not read:
// every released sandbox owns one reclaim event on its size's lane, a warm
// start cancels the oldest one (Lane.CancelHead), and the lane's length is
// the size's warm count. FuzzWarmPool and TestWarmPoolMatchesReference drive
// it and the product side by side.
type refPlatform struct {
	sh  *sim.Shard
	rng sim.Rand
	cap int

	inFlight     int
	peakInFlight int
	warm         map[int]*sim.Lane
	warmTotal    int
	reclaim      func()
	meter        Meter
	obs          *obs.Observer
}

func newRefPlatform(sh *sim.Shard, rng sim.Rand, cap int) *refPlatform {
	p := &refPlatform{
		sh: sh, rng: rng, cap: cap,
		warm: make(map[int]*sim.Lane),
	}
	p.reclaim = p.expire
	return p
}

func (p *refPlatform) WarmCount(memMB int) int {
	if l := p.warm[memMB]; l != nil {
		return l.Len()
	}
	return 0
}

func (p *refPlatform) InvokeGroup(n, memMB int) (GroupStart, error) {
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
	var g GroupStart
	for i := 0; i < n; i++ {
		delay, cold := p.admit(memMB)
		g.StartDelay = max(g.StartDelay, delay)
		if cold {
			g.Cold++
			p.obs.Stats().Observe("faas.cold_start_s", delay)
		}
	}
	return g, nil
}

// admit starts one member: warm if a sandbox of memMB is idle, cold
// otherwise. It returns the member's start delay and whether it was cold.
func (p *refPlatform) admit(memMB int) (delay float64, cold bool) {
	if l := p.warm[memMB]; l != nil && l.CancelHead() {
		p.warmTotal--
		delay = WarmStart
	} else {
		cold = true
		delay = p.coldStart(memMB)
	}
	p.meter.Invocations++
	p.meter.InvokeCost += pricing.FunctionInvoke
	return delay, cold
}

func (p *refPlatform) addWarm(memMB, n int) {
	l := p.warm[memMB]
	if l == nil {
		l = p.sh.NewLane()
		p.warm[memMB] = l
	}
	at := p.sh.Now() + WarmTTL
	for i := 0; i < n; i++ {
		l.Schedule(at, 0, p.reclaim)
	}
	p.warmTotal += n
}

func (p *refPlatform) expire() {
	p.warmTotal--
	if p.obs.Enabled() {
		p.obs.Stats().Inc("faas.warm_expired")
		p.obs.Stats().Set("faas.warm_total", float64(p.warmTotal))
	}
}

func (p *refPlatform) coldStart(memMB int) float64 {
	d := ColdBase + ColdPerGB*float64(memMB)/1024
	if JitterFrac > 0 {
		d *= p.rng.Jitter(JitterFrac)
	}
	return d
}

func (p *refPlatform) ReleaseGroup(n, memMB int, secondsEach float64) {
	if n <= 0 {
		return
	}
	if n > p.inFlight {
		panic(fmt.Sprintf("faas: releasing %d instances with only %d in flight", n, p.inFlight))
	}
	p.inFlight -= n
	p.addWarm(memMB, n)
	p.BillCompute(n, memMB, secondsEach)
}

func (p *refPlatform) BillCompute(n, memMB int, secondsEach float64) {
	if n <= 0 || secondsEach <= 0 {
		return
	}
	cost := float64(n) * pricing.ComputeOnlyCost(secondsEach, float64(memMB))
	p.meter.ComputeCost += cost
	gbs := float64(n) * secondsEach * float64(memMB) / 1024
	p.meter.GBSeconds += gbs
}

func (p *refPlatform) KillSandboxes(n int) int {
	if n <= 0 || p.inFlight == 0 {
		return 0
	}
	if n > p.inFlight {
		n = p.inFlight
	}
	p.inFlight -= n
	return n
}

func (p *refPlatform) ReclaimWarm(n int) int {
	if n <= 0 || p.warmTotal == 0 {
		return 0
	}
	sizes := make([]int, 0, len(p.warm))
	for memMB, l := range p.warm {
		if l.Len() > 0 {
			sizes = append(sizes, memMB)
		}
	}
	sort.Ints(sizes)
	reclaimed := 0
	for _, memMB := range sizes {
		for l := p.warm[memMB]; reclaimed < n && l.CancelHead(); reclaimed++ {
			p.warmTotal--
		}
		if reclaimed == n {
			break
		}
	}
	return reclaimed
}
