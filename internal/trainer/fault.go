package trainer

import (
	"fmt"
	"math"

	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pricing"
	"repro/internal/storage"
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
func (j *Job) scheduledFaults(epochT float64) error {
	r, sched := j.r, j.cfg.Faults
	for {
		ev, idx, ok := sched.NextInstant(j.faultCursor, j.clock+epochT)
		if !ok {
			break
		}
		j.faultCursor = idx
		switch ev.Kind {
		case fault.ReclaimWarm:
			n := r.compute.ReclaimWarm(ev.Count)
			if r.obs.Enabled() {
				r.obs.Trace().InstantAt(j.clock, "job", "trainer", "fault_reclaim",
					obs.I("epoch", j.epoch), obs.I("n", n))
			}
		case fault.KillSandbox:
			if err := j.killDuringEpoch(epochT, ev); err != nil {
				return err
			}
		}
	}
	// Inside a crash window each of the n functions crashes in an attempt
	// with probability p; every crash wastes a uniform fraction of the
	// attempt and restarts one sandbox at its estimated cold start.
	a := j.alloc
	p := sched.CrashRate(j.clock)
	if p == 0 || a.N == 0 {
		return nil
	}
	w := j.cfg.Workload
	svc := storage.New(a.Storage)
	rng := &r.failureRng
	groupP := 1 - math.Pow(1-p, float64(a.N))
	attempt := 0
	for ; attempt < failureAttemptCap && rng.Float64() < groupP; attempt++ {
		wasted := rng.Float64() * epochT
		recover := faas.ColdStartEstimate(a.MemMB) +
			svc.TransferTime(a.N, w.ParamsMB)
		if err := j.crash(1, wasted, recover, 0, "failure"); err != nil {
			return err
		}
	}
	if attempt == failureAttemptCap {
		// The draws gave up retrying and let the epoch proceed as a
		// success. Surface the truncation instead of dropping it.
		j.res.FailureCapped++
		if r.obs.Enabled() {
			r.obs.Stats().Inc("trainer.failure_cap")
		}
	}
	return nil
}

// killDuringEpoch handles one scheduled sandbox kill mid-epoch.
func (j *Job) killDuringEpoch(epochT float64, ev fault.Event) error {
	r, sched, a, w := j.r, j.cfg.Faults, j.alloc, j.cfg.Workload
	k := ev.Count
	if k > a.N {
		k = a.N
	}
	if k <= 0 {
		return nil
	}
	// The attempt fraction that ran before the kill is wasted (the BSP
	// barrier cannot complete without the killed members).
	wasted := ev.At - j.clock
	if wasted < 0 {
		wasted = 0
	}
	if wasted > epochT {
		wasted = epochT
	}
	pf := r.compute
	j.held -= pf.KillSandboxes(k)
	// Replacements pay the platform's real start latency, spiked if the
	// kill lands inside a cold-start spike window.
	pf.SetColdSpikeFactor(sched.ColdSpikeFactor(ev.At))
	g, err := r.invokeGroup(k, a.MemMB)
	pf.SetColdSpikeFactor(1)
	if err != nil {
		return fmt.Errorf("trainer: re-invoking %d killed sandboxes: %w", k, err)
	}
	j.held += k
	// The checkpoint re-pull crosses storage that may be browned out.
	lat, _, _ := sched.BrownoutAt(ev.At)
	recover := g.StartDelay + storage.New(a.Storage).TransferTime(a.N, w.ParamsMB)*lat
	return j.crash(k, wasted, recover, float64(k)*pricing.FunctionInvoke, "fault_kill")
}

// crash accounts one aborted BSP epoch attempt, whether a kill or a draw
// decided it happens: the group loses wasted seconds of the attempt, killed
// sandboxes restart and take recover seconds to re-pull the checkpoint, and
// the epoch retries. Both spans land on the job clock as failure overhead
// and on the platform's meter — the whole group is billed for the wasted
// attempt, the replacements for their recovery run plus invokeFee — and the
// Result takes the dollars the meter charged. instant names the trace
// event: "failure" for a crash window's draws, "fault_kill" for a scheduled
// kill, which also reports how many sandboxes died.
func (j *Job) crash(killed int, wasted, recover, invokeFee float64, instant string) error {
	r, a, epoch := j.r, j.alloc, j.epoch
	j.clock += wasted + recover
	j.res.OverheadTime += wasted + recover
	j.res.FailureTime += wasted + recover
	j.res.Failures++
	if r.obs.Enabled() {
		r.obs.Stats().Inc("trainer.failures")
		r.obs.Stats().Add("trainer.failure_s", wasted+recover)
		if instant == "fault_kill" {
			r.obs.Trace().InstantAt(j.clock, "job", "trainer", instant,
				obs.I("epoch", epoch), obs.I("killed", killed),
				obs.F("wasted_s", wasted), obs.F("recover_s", recover))
			r.obs.Stats().Add("trainer.fault_kills", float64(killed))
		} else {
			r.obs.Trace().InstantAt(j.clock, "job", "trainer", instant,
				obs.I("epoch", epoch), obs.F("wasted_s", wasted), obs.F("recover_s", recover))
		}
	}
	// A crash at the attempt boundary wasted no compute, and the meter
	// charges 0 for it.
	wastedCost := r.compute.BillCompute(a.N, a.MemMB, wasted)
	computeSpent := r.compute.BillCompute(killed, a.MemMB, recover) + wastedCost
	j.res.FunctionCost += computeSpent
	j.res.InvokeCost += invokeFee
	j.res.TotalCost += computeSpent + invokeFee
	// Without a usable checkpoint the crash loses all progress.
	if j.cfg.DisableCheckpoint || j.ckptOff {
		if err := j.cfg.Engine.Restore(j.initialState); err != nil {
			return fmt.Errorf("trainer: restoring initial state: %w", err)
		}
	}
	return nil
}

// brownoutOp gates one checkpoint storage operation through an active
// brownout window. Failed attempts back off on the job clock per the retry
// policy; returning false means the policy was exhausted and the job just
// degraded to checkpoint-less mode (Result.Degraded) — the graceful path,
// where the old behavior for unusable checkpoints was a panic.
func (j *Job) brownoutOp(op string) bool {
	_, errRate, _ := j.cfg.Faults.BrownoutAt(j.clock)
	if errRate == 0 {
		return true
	}
	r := j.r
	for attempt := 0; attempt < fault.MaxAttempts; attempt++ {
		if !j.gate.Fail(errRate) {
			return true
		}
		backoff := fault.Backoff(attempt)
		j.clock += backoff
		j.res.OverheadTime += backoff
		j.res.StorageRetries++
		if r.obs.Enabled() {
			r.obs.Trace().InstantAt(j.clock, "job", "trainer", "storage_retry",
				obs.S("op", op), obs.I("attempt", attempt), obs.F("backoff_s", backoff))
			r.obs.Stats().Inc("trainer.storage_retries")
		}
	}
	j.degrade("brownout retries exhausted during " + op)
	return false
}

// degrade latches the job into checkpoint-less mode with an explicit flag.
func (j *Job) degrade(why string) {
	j.res.Degraded = true
	j.ckptOff = true
	if r := j.r; r.obs.Enabled() {
		r.obs.Trace().InstantAt(j.clock, "job", "trainer", "degraded", obs.S("why", why))
		r.obs.Stats().Inc("trainer.degraded")
	}
}
