package faas

import "repro/internal/obs"

// Fault-injection surface: deterministic schedules (internal/fault) mutate
// real platform state through these methods, so faults propagate to the rest
// of the system the same way ordinary platform behavior does — through
// admission counts, warm-pool bookkeeping and start latencies — rather than
// through a parallel synthetic model.

// KillSandboxes terminates up to n in-flight sandboxes (spot reclaims,
// OOM kills, platform preemptions). The victims simply vanish from the
// admitted count: they are not returned to the warm pool and their compute
// is not billed here — the caller decides what the interruption wasted and
// re-invokes replacements, which pay normal (cold or warm) start latency.
// Returns the number actually killed, which is less than n when fewer were
// in flight.
func (p *Platform) KillSandboxes(n int) int {
	if n <= 0 || p.inFlight == 0 {
		return 0
	}
	if n > p.inFlight {
		n = p.inFlight
	}
	p.inFlight -= n
	if p.obs.Enabled() {
		st := p.obs.Stats()
		st.Add("faas.killed", float64(n))
		st.Set("faas.in_flight", float64(p.inFlight))
		p.obs.Trace().InstantAt(float64(p.sh.Now()), "faas", "faas", "kill_sandboxes",
			obs.I("n", n), obs.I("in_flight", p.inFlight))
	}
	return n
}

// ReclaimWarm evicts up to n warm sandboxes before their TTL (capacity
// pressure on the provider side). Eviction order is deterministic: smallest
// memory size first, and within a size the sandboxes closest to natural
// expiry (the oldest release batch). Returns the number actually
// reclaimed.
func (p *Platform) ReclaimWarm(n int) int {
	if n <= 0 || p.warmTotal == 0 {
		return 0
	}
	reclaimed := 0
	for _, w := range p.pools {
		if reclaimed == n {
			break
		}
		reclaimed += w.take(n - reclaimed)
	}
	if reclaimed > 0 && p.obs.Enabled() {
		st := p.obs.Stats()
		st.Add("faas.reclaimed", float64(reclaimed))
		st.Set("faas.warm_total", float64(p.warmTotal))
		p.obs.Trace().InstantAt(float64(p.sh.Now()), "faas", "faas", "reclaim_warm",
			obs.I("n", reclaimed), obs.I("warm_total", p.warmTotal))
	}
	return reclaimed
}

// SetColdSpikeFactor multiplies every subsequent cold-start draw by f
// (cold-start spike windows: image pulls and placement slow down under
// provider load). Factors below 1 reset to the neutral 1. The deterministic
// ColdStartEstimate never sees the factor — planners keep estimating
// with the calm model, so a spike surfaces as estimation error, exactly the
// divergence the fault model exists to exercise.
func (p *Platform) SetColdSpikeFactor(f float64) {
	if f < 1 {
		f = 1
	}
	p.coldSpike = f
}
