package fault

import "repro/internal/sim"

// Ops is the set of platform mutators a compiled schedule drives. Nil
// members skip their event kinds. Window hooks are called with the window's
// factor (and rate) at From and with the neutral value (factor 1, rate 0)
// at To, so a hook only ever observes the currently active window. A Crash
// window compiles to nothing: its rate is a probability per epoch attempt,
// and open-loop tenants have no epochs (the trainer queries CrashRate).
type Ops struct {
	// Kill terminates n in-flight sandboxes (faas.Platform.KillSandboxes).
	Kill func(n int)
	// Reclaim removes n warm sandboxes (faas.Platform.ReclaimWarm).
	Reclaim func(n int)
	// Straggler sets the active compute-slowdown factor (1 = none).
	Straggler func(factor float64)
	// Brownout sets the active storage degradation (latFactor 1 and
	// errRate 0 = none).
	Brownout func(latFactor, errRate float64)
	// ColdSpike sets the active cold-start multiplier (1 = none).
	ColdSpike func(factor float64)
}

// Compile schedules the fault events onto a kernel shard, mutating platform
// state through ops as simulated time reaches them. Every scheduled event
// carries the given priority: give each tenant a distinct priority (the
// macro-scenario banding pattern) so simultaneous fault events on different
// shards keep a globally unique (time, priority) and every shard's firing
// order stays independent of the shard layout. Returns the number of kernel
// events scheduled.
func Compile(s *Schedule, sh *sim.Shard, priority int, ops Ops) int {
	if s == nil {
		return 0
	}
	n := 0
	schedule := func(at float64, fn func()) {
		sh.SchedulePriority(sim.Time(at), priority, fn)
		n++
	}
	for _, e := range s.events {
		e := e
		switch e.Kind {
		case KillSandbox:
			if ops.Kill != nil {
				schedule(e.At, func() { ops.Kill(e.Count) })
			}
		case ReclaimWarm:
			if ops.Reclaim != nil {
				schedule(e.At, func() { ops.Reclaim(e.Count) })
			}
		case Straggler:
			if ops.Straggler != nil {
				schedule(e.From, func() { ops.Straggler(e.Factor) })
				schedule(e.To, func() { ops.Straggler(1) })
			}
		case Brownout:
			if ops.Brownout != nil {
				schedule(e.From, func() { ops.Brownout(e.Factor, e.ErrorRate) })
				schedule(e.To, func() { ops.Brownout(1, 0) })
			}
		case ColdSpike:
			if ops.ColdSpike != nil {
				schedule(e.From, func() { ops.ColdSpike(e.Factor) })
				schedule(e.To, func() { ops.ColdSpike(1) })
			}
		}
	}
	return n
}
