// Package trainer is the ground-truth executor of distributed training jobs
// on the simulated serverless substrate (internal/platform). It executes a
// job epoch by epoch: functions cold-start, load their data partitions,
// compute gradients for k BSP iterations, synchronize through the selected
// storage service, and are billed by the platform and storage meters.
//
// Unlike the analytical models in internal/cost, the executor injects the
// effects the paper's validation section attributes its estimation error to
// (Fig. 19-20): per-function straggler noise under BSP (the epoch waits for
// the slowest of n functions), network instability that grows with the
// function count, and cold-start/restart overheads. A controller callback
// can adjust the allocation between epochs, with either a full (immediate)
// restart or the paper's delayed restart (Fig. 8) that overlaps new-function
// startup with the running epoch.
package trainer

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/pricing"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Noise parameterizes the divergence between ground truth and the analytic
// models.
type Noise struct {
	// StragglerSigma is the per-function log-normal sigma on compute time;
	// the epoch takes the max across n functions (BSP barrier).
	StragglerSigma float64
	// SyncBase and SyncPerN grow synchronization noise with the function
	// count (network instability; worst near n=40 in the paper).
	SyncBase, SyncPerN float64
	// LoadJitter is the multiplicative jitter on dataset loading.
	LoadJitter float64
	// FailureRate is the per-function per-epoch crash probability
	// (timeouts, OOMs, platform preemptions). A single crashed worker
	// aborts the BSP epoch: the group loses a fraction of the epoch, the
	// crashed function restarts, and the epoch retries from the last
	// checkpoint.
	FailureRate float64
}

// failureAttemptCap bounds the synthetic failure model's per-epoch retry
// loop. Hitting it means the model stopped simulating crashes for that epoch
// and proceeded as if it had succeeded; Result.FailureCapped counts those
// truncations.
const failureAttemptCap = 50

// DefaultNoise returns the calibration used in the evaluation.
func DefaultNoise() Noise {
	return Noise{StragglerSigma: 0.05, SyncBase: 0.01, SyncPerN: 0.0012, LoadJitter: 0.08}
}

// NoNoise returns a noiseless ground truth (useful in unit tests).
func NoNoise() Noise { return Noise{} }

// Decision is what a controller may ask for at an epoch boundary.
type Decision struct {
	// NewAlloc, when non-nil, switches the job to this allocation.
	NewAlloc *cost.Allocation
	// Delayed selects the delayed-restart path (overlap startup with the
	// next epoch) instead of an immediate stop-and-restart.
	Delayed bool
	// PlanningSeconds is the controller's own decision latency, added to
	// the JCT as scheduling overhead (the paper includes it, §IV-G).
	PlanningSeconds float64
	// Stop aborts the job (budget exhausted and so on).
	Stop bool
}

// Controller observes each epoch and may adjust resources. epoch is the
// 1-based index of the epoch that just finished.
type Controller func(epoch int, loss float64, elapsed, spent float64) Decision

// EpochReport records one executed epoch.
type EpochReport struct {
	Epoch       int
	Loss        float64
	Alloc       cost.Allocation
	Time        float64 // wall time of this epoch (incl. overheads in it)
	ComputeTime float64
	SyncTime    float64
	Cost        float64 // function + storage cost attributed to this epoch
	StorageCost float64
}

// Result summarizes a finished job.
type Result struct {
	Converged bool
	Epochs    int
	JCT       float64 // wall time from submission to convergence/stop
	TotalCost float64

	ComputeTime  float64 // sum of epoch compute components
	SyncTime     float64 // sum of epoch synchronization components
	OverheadTime float64 // startup + load + restart + planning time
	PlanningTime float64 // portion of overhead spent deciding
	StartupTime  float64 // the initial cold start + load (not adjustment overhead)

	FunctionCost float64
	StorageCost  float64
	InvokeCost   float64

	Restarts  int
	FinalLoss float64
	// Failures counts crashed epoch attempts; FailureTime is the wall time
	// they wasted (part of OverheadTime). FailureCapped counts epochs whose
	// failure retry loop hit the attempt cap and proceeded as if the epoch
	// had succeeded — a truncation of the synthetic failure model that
	// would otherwise be silent.
	Failures      int
	FailureTime   float64
	FailureCapped int
	// Degraded marks that a storage brownout (or a corrupt checkpoint)
	// exhausted the retry policy and the job fell back to checkpoint-less
	// mode for the rest of its run — an explicit flag, not a panic.
	// StorageRetries counts the brownout attempts that failed and backed
	// off before succeeding or degrading.
	Degraded       bool
	StorageRetries int
	Trace          []EpochReport
}

// Config describes one training job.
type Config struct {
	Workload *workload.Model
	Engine   workload.Engine
	Alloc    cost.Allocation

	// TargetLoss stops the job when reached; MaxEpochs is a hard cap.
	TargetLoss float64
	MaxEpochs  int

	// DisableCheckpoint turns off the per-epoch model checkpointing through
	// external storage: a crashed epoch then loses ALL progress (the job
	// restarts from the initial model) instead of retrying from the last
	// epoch boundary. Exists to quantify the checkpoint's value under
	// failure injection.
	DisableCheckpoint bool

	// Async switches from Bulk Synchronous Parallel to asynchronous
	// parameter-server training (Siren's native mode): no barrier, so an
	// epoch's wall time follows the average worker rather than the slowest
	// and each worker synchronizes with two overlapped transfers per
	// iteration instead of the serialized (3n-2)/(2n-2) pattern — but
	// stale gradients slow statistical progress, so more wall-clock epochs
	// are needed per engine epoch (the classic ASP trade).
	Async bool

	// Faults attaches a deterministic fault schedule (internal/fault). When
	// the schedule is active it REPLACES the synthetic dice-roll failure
	// model (Noise.FailureRate is ignored): sandbox kills, straggler
	// slowdowns, storage brownouts and cold-start spikes happen at explicit
	// scheduled times, mutate the real platform, and reach the controller
	// only through the epoch times it ordinarily observes. An attached but
	// empty schedule changes nothing — results stay bit-identical to no
	// schedule at all.
	Faults *fault.Schedule

	// Retry bounds the trainer's storage retries during brownout windows
	// (the zero value means fault.DefaultRetryPolicy). Exhausting it drops
	// the job to checkpoint-less mode with Result.Degraded set.
	Retry fault.RetryPolicy

	Controller Controller // optional
}

// Runner executes jobs on one simulated substrate.
type Runner struct {
	Backend *platform.Backend
	Prices  pricing.PriceBook
	Noise   Noise

	// delayPaid tracks manually-scaled services whose provisioning delay has
	// already been paid on this substrate: an ElastiCache cluster or
	// parameter-server VM starts up once per workflow, not once per group or
	// per job (re-using it later in the runner's lifetime is free in time).
	delayPaid map[storage.Kind]bool

	// obs records the executor's trace (startup/epoch/restart spans, failure
	// instants, delayed-restart overlap windows) on the job's own timeline.
	// Nil disables recording.
	obs *obs.Observer
}

// NewRunner returns a runner on a fresh simulated substrate with default
// platform, prices and noise, seeded deterministically.
func NewRunner(seed uint64) *Runner {
	b := platform.New(seed)
	return &Runner{
		Backend:   b,
		Prices:    b.Prices(),
		Noise:     DefaultNoise(),
		delayPaid: make(map[storage.Kind]bool),
	}
}

// SetObserver attaches an observability sink to the runner and its backend:
// trainer events land on the job timeline, substrate events (cold starts,
// warm-pool churn) on the substrate clock. Nil detaches.
func (r *Runner) SetObserver(o *obs.Observer) {
	r.obs = o
	r.Backend.SetObserver(o)
}

// Observer returns the runner's observability sink (nil when detached).
func (r *Runner) Observer() *obs.Observer { return r.obs }

// Compute returns the substrate's serverless account.
func (r *Runner) Compute() *faas.Platform { return r.Backend.Platform() }

// invokeGroup is Compute().InvokeGroup with the numbers added to a denial:
// the platform's sentinel is bare, and the trainer's errors reach a person.
func (r *Runner) invokeGroup(n, memMB int) (faas.GroupStart, error) {
	pf := r.Compute()
	g, err := pf.InvokeGroup(n, memMB)
	if errors.Is(err, faas.ErrConcurrencyExceeded) {
		err = fmt.Errorf("%w: %d in flight + %d requested > %d", err, pf.InFlight(), n, pf.Limits().MaxConcurrency)
	}
	return g, err
}

// Service returns the substrate's storage metering model for kind.
func (r *Runner) Service(k storage.Kind) *storage.Service { return r.Backend.Service(k) }

// acquireService returns the provisioning delay to pay for using a storage
// service now (zero if the service auto-scales or its startup was already
// paid earlier in this runner's lifetime).
func (r *Runner) acquireService(kind storage.Kind) float64 {
	if r.delayPaid[kind] {
		return 0
	}
	r.delayPaid[kind] = true
	return r.Service(kind).ProvisionDelay()
}

// state tracks one running job.
type state struct {
	cfg   Config
	alloc cost.Allocation
	res   *Result

	// pendingSwitch holds a delayed-restart target: the new group starts
	// during the current epoch and takes over at its end.
	pendingSwitch *cost.Allocation
	// pendingReady is the virtual time at which the delayed group is ready.
	pendingReady float64
	// pendingStart is the job clock when the delayed group began starting
	// up (the left edge of the Fig. 8 overlap window in the trace).
	pendingStart float64
	clock        float64 // job-relative elapsed time
	// asyncProgress accumulates fractional statistical progress under ASP;
	// the loss engine advances one epoch each time it crosses 1.
	asyncProgress float64
	// initialState snapshots the engine before training so a failure
	// without checkpointing can lose everything (DisableCheckpoint).
	initialState []float64

	// faultCursor walks Config.Faults' instantaneous events (kills and
	// warm reclaims) as the job clock passes them; gate drives the
	// deterministic brownout error injection; ckptOff latches the degraded
	// checkpoint-less mode once the retry policy is exhausted.
	faultCursor int
	gate        fault.Gate
	ckptOff     bool
}

// Run executes the job to convergence, MaxEpochs, or a Stop decision.
func (r *Runner) Run(cfg Config) (*Result, error) {
	job, err := r.StartJob(cfg)
	if err != nil {
		return nil, err
	}
	for !job.Done() {
		if err := job.Step(); err != nil {
			return nil, err
		}
		// Advance the shared clock so time-based substrate events
		// (warm-sandbox expiry) fire as the job progresses. The cluster
		// scheduler drives this itself when jobs interleave.
		r.Backend.Advance(job.Elapsed() - job.advanced)
		job.advanced = job.Elapsed()
	}
	return job.Finish(), nil
}

// Job is a training job in progress, steppable one epoch at a time (the
// multi-tenant cluster scheduler interleaves jobs this way).
type Job struct {
	r        *Runner
	st       *state
	epoch    int
	done     bool
	finished bool
	// advanced tracks how much of Elapsed has been mirrored onto the
	// shared clock by the driver.
	advanced float64
}

// StartJob validates cfg, admits the function group (startup + load on the
// job's clock) and returns the steppable job.
func (r *Runner) StartJob(cfg Config) (*Job, error) {
	if cfg.Workload == nil || cfg.Engine == nil {
		return nil, fmt.Errorf("trainer: nil workload or engine")
	}
	if cfg.MaxEpochs <= 0 {
		cfg.MaxEpochs = 1000
	}
	st := &state{cfg: cfg, alloc: cfg.Alloc, res: &Result{}, faultCursor: -1}
	if snap, ok := cfg.Engine.(workload.Snapshotter); ok {
		st.initialState = snap.Snapshot()
	}
	if err := r.startGroup(st, st.alloc, true); err != nil {
		return nil, err
	}
	return &Job{r: r, st: st}, nil
}

// Done reports whether the job has converged, stopped or hit its cap.
func (j *Job) Done() bool { return j.done }

// Elapsed returns the job's wall clock so far (its own timeline, not the
// shared substrate clock).
func (j *Job) Elapsed() float64 { return j.st.clock }

// Step executes one epoch (plus any controller decision). Calling Step on a
// finished job is a no-op.
func (j *Job) Step() error {
	if j.done {
		return nil
	}
	j.epoch++
	st, cfg := j.st, j.st.cfg
	rep, err := j.r.runEpoch(st, j.epoch)
	if err != nil {
		return err
	}
	st.res.Trace = append(st.res.Trace, rep)
	st.res.Epochs = j.epoch
	st.res.FinalLoss = rep.Loss

	if cfg.TargetLoss > 0 && rep.Loss <= cfg.TargetLoss {
		st.res.Converged = true
		j.done = true
		return nil
	}
	if cfg.Controller != nil {
		dec := cfg.Controller(j.epoch, rep.Loss, st.clock, st.res.TotalCost)
		if dec.PlanningSeconds > 0 {
			st.clock += dec.PlanningSeconds
			st.res.OverheadTime += dec.PlanningSeconds
			st.res.PlanningTime += dec.PlanningSeconds
		}
		if dec.Stop {
			j.done = true
			return nil
		}
		if dec.NewAlloc != nil && *dec.NewAlloc != st.alloc {
			if err := j.r.applySwitch(st, *dec.NewAlloc, dec.Delayed); err != nil {
				return err
			}
		}
	}
	if j.epoch >= cfg.MaxEpochs {
		j.done = true
	}
	return nil
}

// Finish releases the job's resources and returns its result. Finish is
// idempotent.
func (j *Job) Finish() *Result {
	if !j.finished {
		j.finished = true
		j.r.finishJob(j.st)
		j.st.res.JCT = j.st.clock
	}
	j.done = true
	return j.st.res
}

// RunEpochs runs exactly epochs epochs under a fixed allocation (used by the
// hyperparameter-tuning driver for one trial in one stage).
func (r *Runner) RunEpochs(w *workload.Model, eng workload.Engine, a cost.Allocation, epochs int) (*Result, error) {
	return r.Run(Config{Workload: w, Engine: eng, Alloc: a, MaxEpochs: epochs})
}

// startGroup invokes the function group for alloc, charging startup and the
// initial data load; initial=false marks restarts (the model is pulled from
// storage as well).
func (r *Runner) startGroup(st *state, a cost.Allocation, initial bool) error {
	w := st.cfg.Workload
	g, err := r.invokeGroup(a.N, a.MemMB)
	if err != nil {
		return fmt.Errorf("trainer: invoking %v: %w", a, err)
	}
	start := g.StartDelay
	if p := r.acquireService(a.Storage); p > start {
		start = p // storage provisioning overlaps the cold start
	}
	load := r.loadTime(w, a)
	if !initial {
		// A restarted group must also pull the checkpointed model.
		load += r.Service(a.Storage).TransferTime(a.N, w.ParamsMB)
		r.restoreCheckpoint(st)
	}
	st.clock += start + load
	st.res.OverheadTime += start + load
	if initial {
		st.res.StartupTime = start + load
	}
	if r.obs.Enabled() {
		name := "startup"
		if !initial {
			name = "restart_startup"
		}
		r.obs.Trace().SpanAt(st.clock-(start+load), start+load, "job", "trainer", name,
			obs.I("n", a.N), obs.I("mem_mb", a.MemMB), obs.S("storage", a.Storage.String()),
			obs.F("start_s", start), obs.F("load_s", load))
		r.obs.Stats().Observe("trainer.startup_s", start+load)
	}
	r.Compute().BillCompute(a.N, a.MemMB, load)
	st.res.FunctionCost += float64(a.N) * r.Prices.ComputeOnlyCost(load, float64(a.MemMB))
	st.res.InvokeCost += float64(a.N) * r.Prices.FunctionInvoke
	st.res.StorageCost += storage.LoadCost(r.Prices, a.N)
	st.res.TotalCost += float64(a.N)*r.Prices.ComputeOnlyCost(load, float64(a.MemMB)) +
		float64(a.N)*r.Prices.FunctionInvoke + storage.LoadCost(r.Prices, a.N)
	return nil
}

func (r *Runner) loadTime(w *workload.Model, a cost.Allocation) float64 {
	t := w.Dataset.PartitionSizeMB(a.N) / 80
	if r.Noise.LoadJitter > 0 {
		t *= r.Backend.Rand("trainer.load").Jitter(r.Noise.LoadJitter)
	}
	return t
}

// runEpoch executes one epoch under the current allocation: k iterations of
// compute + sync with ground-truth noise, engine advance, billing, and the
// takeover of a pending delayed switch.
func (r *Runner) runEpoch(st *state, epoch int) (EpochReport, error) {
	w := st.cfg.Workload
	a := st.alloc
	svc := r.Service(a.Storage)

	var computeT, syncT float64
	if st.cfg.Async {
		computeT = r.asyncCompute(w, a)
		syncT = r.asyncSync(w, a, svc)
	} else {
		computeT = r.groundTruthCompute(w, a)
		syncT = r.groundTruthSync(w, a, svc)
	}
	if sched := st.cfg.Faults; sched.Active() {
		// Active fault windows inflate this epoch's components: stragglers
		// slow compute, brownouts slow the storage-bound synchronization.
		// The controller is not told — it sees the inflated epoch time
		// through its normal observations, which is what forces a genuine
		// re-plan (a path= entry in the decision log) rather than a scripted
		// one.
		computeT *= sched.StragglerFactor(st.clock)
		if lat, _, on := sched.BrownoutAt(st.clock); on {
			syncT *= lat
		}
	}
	epochT := computeT + syncT

	// Failure injection: any crashed worker aborts the BSP epoch. The
	// group loses a fraction of the epoch (billed — the platform charges
	// for the wasted compute), the crashed sandbox restarts and re-pulls
	// the last checkpoint, and the epoch retries. Without checkpointing a
	// single crash throws the job back to the initial model. All of that
	// is crash; only the source of the crash instants differs: an active
	// fault schedule says exactly when sandboxes die, against the real
	// platform, and otherwise the synthetic model draws them from its
	// seeded stream.
	if sched := st.cfg.Faults; sched.Active() {
		if err := r.scheduledFaults(st, epoch, epochT); err != nil {
			return EpochReport{}, err
		}
	} else if p := r.Noise.FailureRate; p > 0 && a.N > 0 {
		rng := r.Backend.Rand("trainer.failure")
		groupP := 1 - math.Pow(1-p, float64(a.N))
		attempt := 0
		for ; attempt < failureAttemptCap && rng.Float64() < groupP; attempt++ {
			wasted := rng.Float64() * epochT
			recover := r.Compute().ColdStartEstimate(a.MemMB) +
				svc.TransferTime(a.N, w.ParamsMB)
			if err := r.crash(st, epoch, 1, wasted, recover, 0, "failure"); err != nil {
				return EpochReport{}, err
			}
		}
		if attempt == failureAttemptCap {
			// The synthetic model gave up retrying and let the epoch proceed
			// as a success. Surface the truncation instead of dropping it.
			st.res.FailureCapped++
			if r.obs.Enabled() {
				r.obs.Stats().Inc("trainer.failure_cap")
			}
		}
	}

	var loss float64
	if st.cfg.Async {
		// Stale gradients dilute each wall epoch's statistical progress.
		st.asyncProgress += asyncEfficiency(a.N)
		loss = st.cfg.Engine.Loss()
		for st.asyncProgress >= 1 {
			loss = st.cfg.Engine.NextEpoch()
			st.asyncProgress--
		}
	} else {
		loss = st.cfg.Engine.NextEpoch()
	}

	// Billing: n functions ran the epoch; storage billed per its pattern.
	funcCost := float64(a.N) * r.Prices.ComputeOnlyCost(epochT, float64(a.MemMB))
	r.Compute().BillCompute(a.N, a.MemMB, epochT)
	var stoCost float64
	if svc.ChargesByRequest() {
		stoCost = float64(w.IterationsPerEpoch(a.N)) * svc.SyncRequestCost(a.N, w.ParamsMB)
	} else {
		stoCost = svc.RuntimeCost(epochT)
	}

	rep := EpochReport{
		Epoch: epoch, Loss: loss, Alloc: a,
		Time: epochT, ComputeTime: computeT, SyncTime: syncT,
		Cost: funcCost + stoCost, StorageCost: stoCost,
	}
	st.clock += epochT
	st.res.ComputeTime += computeT
	st.res.SyncTime += syncT
	st.res.FunctionCost += funcCost
	st.res.StorageCost += stoCost
	st.res.TotalCost += funcCost + stoCost
	if r.obs.Enabled() {
		r.obs.Trace().SpanAt(st.clock-epochT, epochT, "job", "trainer", "epoch",
			obs.I("epoch", epoch), obs.F("loss", loss),
			obs.F("compute_s", computeT), obs.F("sync_s", syncT),
			obs.I("n", a.N), obs.I("mem_mb", a.MemMB), obs.S("storage", a.Storage.String()))
		r.obs.Stats().Inc("trainer.epochs")
		r.obs.Stats().Observe("trainer.epoch_s", epochT)
		r.obs.Stats().Observe("trainer.barrier_sync_s", syncT)
		r.obs.Stats().Add("trainer.compute_s", computeT)
		r.obs.Stats().Add("trainer.sync_s", syncT)
	}

	// Checkpoint the model state through storage at the epoch boundary
	// (this is the state a restarted group resumes from).
	r.checkpoint(st)

	// A pending delayed switch takes over here: the new group has been
	// starting up while this epoch ran; any residual startup time not
	// hidden by the epoch surfaces as overhead (Fig. 8).
	if st.pendingSwitch != nil {
		residual := st.pendingReady - st.clock
		if residual > 0 {
			st.clock += residual
			st.res.OverheadTime += residual
		}
		// Old group is released; new group pulls the model directly.
		r.Compute().ReleaseGroup(a.N, a.MemMB, 0)
		handoff := r.Service(st.pendingSwitch.Storage).TransferTime(st.pendingSwitch.N, w.ParamsMB)
		st.clock += handoff
		st.res.OverheadTime += handoff
		next := *st.pendingSwitch
		st.alloc = next
		st.pendingSwitch = nil
		st.res.Restarts++
		if r.obs.Enabled() {
			// The Fig. 8 overlap window: the new group's startup ran
			// concurrently with the old group's epoch; only the residual
			// (plus the model handoff) surfaced as overhead.
			r.obs.Trace().SpanAt(st.pendingStart, st.clock-st.pendingStart, "job", "trainer", "restart_overlap",
				obs.I("n", next.N), obs.I("mem_mb", next.MemMB), obs.S("storage", next.Storage.String()),
				obs.F("residual_s", math.Max(residual, 0)), obs.F("handoff_s", handoff))
			r.obs.Stats().Inc("trainer.delayed_takeovers")
			r.obs.Stats().Add("trainer.restart_residual_s", math.Max(residual, 0))
		}
	}
	return rep, nil
}

// groundTruthCompute is the epoch's gradient computation wall time: the
// slowest of n straggling functions.
func (r *Runner) groundTruthCompute(w *workload.Model, a cost.Allocation) float64 {
	base := w.Dataset.PartitionSizeMB(a.N) * w.U(a.MemMB)
	if r.Noise.StragglerSigma == 0 {
		return base
	}
	rng := r.Backend.Rand("trainer.straggler")
	worst := 0.0
	for i := 0; i < a.N; i++ {
		if f := rng.LogNormal(0, r.Noise.StragglerSigma); f > worst {
			worst = f
		}
	}
	return base * worst
}

// groundTruthSync is the epoch's synchronization wall time with network
// instability that grows with n.
func (r *Runner) groundTruthSync(w *workload.Model, a cost.Allocation, svc *storage.Service) float64 {
	base := float64(w.IterationsPerEpoch(a.N)) * svc.SyncTime(a.N, w.ParamsMB)
	sigma := r.Noise.SyncBase + r.Noise.SyncPerN*float64(a.N)
	if sigma == 0 {
		return base
	}
	return base * r.Backend.Rand("trainer.sync").LogNormal(0, sigma)
}

// asyncCompute is the epoch's gradient computation wall time under ASP:
// workers proceed independently, so the epoch follows the mean worker.
func (r *Runner) asyncCompute(w *workload.Model, a cost.Allocation) float64 {
	base := w.Dataset.PartitionSizeMB(a.N) * w.U(a.MemMB)
	if r.Noise.StragglerSigma == 0 {
		return base
	}
	return base * r.Backend.Rand("trainer.straggler").LogNormal(0, r.Noise.StragglerSigma)
}

// asyncSync is the epoch's synchronization wall time under ASP: each worker
// pushes its gradient and pulls the model (two transfers) per iteration,
// overlapped across workers rather than serialized.
func (r *Runner) asyncSync(w *workload.Model, a cost.Allocation, svc *storage.Service) float64 {
	base := float64(w.IterationsPerEpoch(a.N)) * 2 * svc.TransferTime(a.N, w.ParamsMB)
	sigma := r.Noise.SyncBase + r.Noise.SyncPerN*float64(a.N)
	if sigma == 0 {
		return base
	}
	return base * r.Backend.Rand("trainer.sync").LogNormal(0, sigma)
}

// asyncEfficiency is the statistical progress one ASP wall epoch delivers
// relative to a BSP epoch: staleness grows with the worker count
// (Recht/Hogwild-style degradation, calibrated mildly).
func asyncEfficiency(n int) float64 {
	if n <= 1 {
		return 1
	}
	return 1 / (1 + 0.12*math.Log(float64(n)))
}

// applySwitch changes the allocation, either immediately (stop, restart,
// reload: full overhead) or delayed (start the new group now; it takes over
// after the next epoch).
func (r *Runner) applySwitch(st *state, next cost.Allocation, delayed bool) error {
	w := st.cfg.Workload
	if delayed {
		g, err := r.invokeGroup(next.N, next.MemMB)
		if err != nil {
			return fmt.Errorf("trainer: delayed switch to %v: %w", next, err)
		}
		start := g.StartDelay
		if p := r.acquireService(next.Storage); p > start {
			start = p // a new storage service provisions during the overlap
		}
		load := r.loadTime(w, next)
		st.pendingSwitch = &next
		st.pendingStart = st.clock
		st.pendingReady = st.clock + start + load
		if r.obs.Enabled() {
			r.obs.Trace().InstantAt(st.clock, "job", "trainer", "switch",
				obs.I("n", next.N), obs.I("mem_mb", next.MemMB), obs.S("storage", next.Storage.String()),
				obs.B("delayed", true), obs.F("ready_in_s", start+load))
			r.obs.Stats().Inc("trainer.switches.delayed")
		}
		// The new group bills its load immediately; it runs concurrently
		// with the old group's next epoch.
		r.Compute().BillCompute(next.N, next.MemMB, load)
		spent := float64(next.N)*r.Prices.ComputeOnlyCost(load, float64(next.MemMB)) +
			float64(next.N)*r.Prices.FunctionInvoke + storage.LoadCost(r.Prices, next.N)
		st.res.FunctionCost += float64(next.N) * r.Prices.ComputeOnlyCost(load, float64(next.MemMB))
		st.res.InvokeCost += float64(next.N) * r.Prices.FunctionInvoke
		st.res.StorageCost += storage.LoadCost(r.Prices, next.N)
		st.res.TotalCost += spent
		return nil
	}
	// Immediate restart: release the old group, start the new one with the
	// full startup + reload + model pull on the critical path.
	r.Compute().ReleaseGroup(st.alloc.N, st.alloc.MemMB, 0)
	old := st.alloc
	st.alloc = next
	if r.obs.Enabled() {
		r.obs.Trace().InstantAt(st.clock, "job", "trainer", "switch",
			obs.I("n", next.N), obs.I("mem_mb", next.MemMB), obs.S("storage", next.Storage.String()),
			obs.B("delayed", false))
		r.obs.Stats().Inc("trainer.switches.immediate")
	}
	if err := r.startGroup(st, next, false); err != nil {
		st.alloc = old
		return err
	}
	st.res.Restarts++
	return nil
}

// checkpoint writes the engine state to the storage substrate. Under an
// active brownout window the write runs through the bounded retry policy;
// exhausting it degrades the job to checkpoint-less mode instead of
// erroring.
func (r *Runner) checkpoint(st *state) {
	if st.cfg.DisableCheckpoint || st.ckptOff {
		return
	}
	if snap, ok := st.cfg.Engine.(workload.Snapshotter); ok && r.brownoutOp(st, "checkpoint") {
		r.Backend.Put(checkpointKey, snap.Snapshot())
	}
}

// restoreCheckpoint pulls the engine state back after a restart. Storage
// trouble degrades rather than kills the job: a browned-out read that
// exhausts its retries, or a checkpoint that no longer restores, drops the
// job to checkpoint-less mode with Result.Degraded set and training
// continues from the in-memory state.
func (r *Runner) restoreCheckpoint(st *state) {
	snap, ok := st.cfg.Engine.(workload.Snapshotter)
	if !ok || st.ckptOff || !r.brownoutOp(st, "restore") {
		return
	}
	if state, found := r.Backend.Get(checkpointKey); found {
		if err := snap.Restore(state); err != nil {
			r.degrade(st, "corrupt checkpoint: "+err.Error())
		}
	}
}

const checkpointKey = "model/checkpoint"

// finishJob releases the final group and any pending delayed group.
func (r *Runner) finishJob(st *state) {
	r.Compute().ReleaseGroup(st.alloc.N, st.alloc.MemMB, 0)
	if st.pendingSwitch != nil {
		r.Compute().ReleaseGroup(st.pendingSwitch.N, st.pendingSwitch.MemMB, 0)
		st.pendingSwitch = nil
	}
	if math.IsNaN(st.clock) {
		panic("trainer: job clock is NaN")
	}
}
