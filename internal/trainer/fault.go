package trainer

import (
	"fmt"
	"math"

	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pricing"
	"repro/internal/workload"
)

// Scheduled fault reaction: Config.Faults decides every fault a job sees.
// Kills and warm reclaims mutate the real platform; crash windows set the
// rate of seeded per-attempt crash draws; brownouts exercise the bounded
// retry policy around checkpoint storage; straggler and brownout windows
// inflate the epoch components in runEpoch. Kills and drawn crashes are
// accounted through the one crash routine, so their results are directly
// comparable.

// scheduledFaults processes every instantaneous fault event the schedule
// places before the end of the current epoch attempt, then draws the crash
// window's failures. A warm reclaim is a pure platform mutation (the job
// itself is untouched). A sandbox kill aborts the BSP epoch like a drawn
// crash: the group loses the attempt fraction that ran before the kill, the
// killed sandboxes re-invoke at real (possibly cold-spiked) start latency
// and re-pull the checkpoint through possibly browned-out storage, and the
// epoch retries.
func (r *Runner) scheduledFaults(st *state, epoch int, epochT float64) error {
	sched := st.cfg.Faults
	for {
		ev, idx, ok := sched.NextInstant(st.faultCursor, st.clock+epochT)
		if !ok {
			break
		}
		st.faultCursor = idx
		switch ev.Kind {
		case fault.ReclaimWarm:
			n := r.Compute().ReclaimWarm(ev.Count)
			if r.obs.Enabled() {
				r.obs.Trace().InstantAt(st.clock, "job", "trainer", "fault_reclaim",
					obs.I("epoch", epoch), obs.I("n", n))
			}
		case fault.KillSandbox:
			if err := r.killDuringEpoch(st, epoch, epochT, ev); err != nil {
				return err
			}
		}
	}
	// Inside a crash window each of the n functions crashes in an attempt
	// with probability p; every crash wastes a uniform fraction of the
	// attempt and restarts one sandbox at its estimated cold start.
	a := st.alloc
	p := sched.CrashRate(st.clock)
	if p == 0 || a.N == 0 {
		return nil
	}
	w := st.cfg.Workload
	svc := r.Service(a.Storage)
	rng := r.failureRng
	groupP := 1 - math.Pow(1-p, float64(a.N))
	attempt := 0
	for ; attempt < failureAttemptCap && rng.Float64() < groupP; attempt++ {
		wasted := rng.Float64() * epochT
		recover := faas.ColdStartEstimate(a.MemMB) +
			svc.TransferTime(a.N, w.ParamsMB)
		if err := r.crash(st, epoch, 1, wasted, recover, 0, "failure"); err != nil {
			return err
		}
	}
	if attempt == failureAttemptCap {
		// The draws gave up retrying and let the epoch proceed as a
		// success. Surface the truncation instead of dropping it.
		st.res.FailureCapped++
		if r.obs.Enabled() {
			r.obs.Stats().Inc("trainer.failure_cap")
		}
	}
	return nil
}

// killDuringEpoch handles one scheduled sandbox kill mid-epoch.
func (r *Runner) killDuringEpoch(st *state, epoch int, epochT float64, ev fault.Event) error {
	sched := st.cfg.Faults
	a := st.alloc
	w := st.cfg.Workload
	k := ev.Count
	if k > a.N {
		k = a.N
	}
	if k <= 0 {
		return nil
	}
	// The attempt fraction that ran before the kill is wasted (the BSP
	// barrier cannot complete without the killed members).
	wasted := ev.At - st.clock
	if wasted < 0 {
		wasted = 0
	}
	if wasted > epochT {
		wasted = epochT
	}
	pf := r.Compute()
	pf.KillSandboxes(k)
	// Replacements pay the platform's real start latency, spiked if the
	// kill lands inside a cold-start spike window.
	pf.SetColdSpikeFactor(sched.ColdSpikeFactor(ev.At))
	g, err := r.invokeGroup(k, a.MemMB)
	pf.SetColdSpikeFactor(1)
	if err != nil {
		return fmt.Errorf("trainer: re-invoking %d killed sandboxes: %w", k, err)
	}
	// The checkpoint re-pull crosses storage that may be browned out.
	lat, _, _ := sched.BrownoutAt(ev.At)
	recover := g.StartDelay + r.Service(a.Storage).TransferTime(a.N, w.ParamsMB)*lat
	return r.crash(st, epoch, k, wasted, recover, float64(k)*pricing.FunctionInvoke, "fault_kill")
}

// crash accounts one aborted BSP epoch attempt, whether a kill or a draw
// decided it happens: the group loses wasted seconds of the attempt, killed
// sandboxes restart and take recover seconds to re-pull the checkpoint, and
// the epoch retries. Both spans land on the job clock as failure overhead
// and on the platform's meter — the whole group is billed for the wasted
// attempt, the replacements for their recovery run plus invokeFee. instant
// names the trace event: "failure" for a crash window's draws, "fault_kill"
// for a scheduled kill, which also reports how many sandboxes died.
func (r *Runner) crash(st *state, epoch, killed int, wasted, recover, invokeFee float64, instant string) error {
	a := st.alloc
	st.clock += wasted + recover
	st.res.OverheadTime += wasted + recover
	st.res.FailureTime += wasted + recover
	st.res.Failures++
	if r.obs.Enabled() {
		r.obs.Stats().Inc("trainer.failures")
		r.obs.Stats().Add("trainer.failure_s", wasted+recover)
		if instant == "fault_kill" {
			r.obs.Trace().InstantAt(st.clock, "job", "trainer", instant,
				obs.I("epoch", epoch), obs.I("killed", killed),
				obs.F("wasted_s", wasted), obs.F("recover_s", recover))
			r.obs.Stats().Add("trainer.fault_kills", float64(killed))
		} else {
			r.obs.Trace().InstantAt(st.clock, "job", "trainer", instant,
				obs.I("epoch", epoch), obs.F("wasted_s", wasted), obs.F("recover_s", recover))
		}
	}
	r.Compute().BillCompute(a.N, a.MemMB, wasted)
	r.Compute().BillCompute(killed, a.MemMB, recover)
	computeSpent := float64(killed) * pricing.ComputeOnlyCost(recover, float64(a.MemMB))
	if wasted > 0 { // a crash at the attempt boundary wasted no compute
		computeSpent += float64(a.N) * pricing.ComputeOnlyCost(wasted, float64(a.MemMB))
	}
	st.res.FunctionCost += computeSpent
	st.res.InvokeCost += invokeFee
	st.res.TotalCost += computeSpent + invokeFee
	// Without a usable checkpoint the crash loses all progress.
	if (st.cfg.DisableCheckpoint || st.ckptOff) && st.initialState != nil {
		if snap, ok := st.cfg.Engine.(workload.Snapshotter); ok {
			if err := snap.Restore(st.initialState); err != nil {
				return fmt.Errorf("trainer: restoring initial state: %w", err)
			}
		}
	}
	return nil
}

// brownoutOp gates one checkpoint storage operation through an active
// brownout window. Failed attempts back off on the job clock per the retry
// policy; returning false means the policy was exhausted and the job just
// degraded to checkpoint-less mode (Result.Degraded) — the graceful path,
// where the old behavior for unusable checkpoints was a panic.
func (r *Runner) brownoutOp(st *state, op string) bool {
	_, errRate, _ := st.cfg.Faults.BrownoutAt(st.clock)
	if errRate == 0 {
		return true
	}
	for attempt := 0; attempt < fault.MaxAttempts; attempt++ {
		if !st.gate.Fail(errRate) {
			return true
		}
		backoff := fault.Backoff(attempt)
		st.clock += backoff
		st.res.OverheadTime += backoff
		st.res.StorageRetries++
		if r.obs.Enabled() {
			r.obs.Trace().InstantAt(st.clock, "job", "trainer", "storage_retry",
				obs.S("op", op), obs.I("attempt", attempt), obs.F("backoff_s", backoff))
			r.obs.Stats().Inc("trainer.storage_retries")
		}
	}
	r.degrade(st, "brownout retries exhausted during "+op)
	return false
}

// degrade latches the job into checkpoint-less mode with an explicit flag.
func (r *Runner) degrade(st *state, why string) {
	st.res.Degraded = true
	st.ckptOff = true
	if r.obs.Enabled() {
		r.obs.Trace().InstantAt(st.clock, "job", "trainer", "degraded", obs.S("why", why))
		r.obs.Stats().Inc("trainer.degraded")
	}
}
