// Package trainer is the ground-truth executor of distributed training jobs
// on a simulated serverless substrate the runner owns: one discrete-event
// kernel (internal/sim) carrying a serverless account (internal/faas), timed
// and priced by internal/storage's shared model of each storage service, all
// billing under one price book. It executes a job epoch by epoch: functions
// cold-start, load their data partitions, compute gradients for k BSP
// iterations, synchronize through the selected storage service, checkpoint
// into the job's own snapshot, and are billed by the platform and storage
// meters.
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
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Noise parameterizes the divergence between ground truth and the analytic
// models.
type Noise struct {
	// StragglerSigma is the per-function log-normal sigma on compute time;
	// the epoch takes the max across n functions (BSP barrier). 0 turns it
	// off; otherwise it lies in (0, 50], as sim.Rand.MaxLogNormal requires.
	StragglerSigma float64
	// SyncBase and SyncPerN grow synchronization noise with the function
	// count (network instability; worst near n=40 in the paper).
	SyncBase, SyncPerN float64
	// LoadJitter is the multiplicative jitter on dataset loading.
	LoadJitter float64
}

// failureAttemptCap bounds the per-epoch retry loop drawn against a crash
// window's rate. Hitting it means the draws stopped simulating crashes for
// that epoch and it proceeded as if it had succeeded; Result.FailureCapped
// counts those truncations.
const failureAttemptCap = 50

// DefaultNoise returns the calibration used in the evaluation; its straggler
// sigma is the faas.StragglerSigma cost.Model assumes.
func DefaultNoise() Noise {
	return Noise{StragglerSigma: faas.StragglerSigma, SyncBase: 0.01, SyncPerN: 0.0012, LoadJitter: 0.08}
}

// NoNoise returns a noiseless ground truth (useful in unit tests).
func NoNoise() Noise { return Noise{} }

// Decision is what a controller may ask for at an epoch boundary.
type Decision struct {
	// Switch, when set, switches the job to NewAlloc.
	Switch   bool
	NewAlloc cost.Allocation
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
	// had succeeded — a truncation of the crash-window draws that would
	// otherwise be silent.
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
	// external storage: the job neither writes nor restores a checkpoint,
	// and a crashed epoch loses ALL progress (the job restarts from the
	// initial model) instead of retrying from the last epoch boundary.
	// Exists to quantify the checkpoint's value under failure injection.
	DisableCheckpoint bool

	// Async switches from Bulk Synchronous Parallel to asynchronous
	// parameter-server training (Siren's native mode): no barrier, so an
	// epoch's wall time follows the average worker rather than the slowest
	// and each worker synchronizes with two overlapped transfers per
	// iteration instead of the serialized (3n-2)/(2n-2) pattern — but
	// stale gradients slow statistical progress, so more wall-clock epochs
	// are needed per engine epoch (the classic ASP trade).
	Async bool

	// Faults is the job's one source of faults (internal/fault): sandbox
	// kills, straggler slowdowns, storage brownouts and cold-start spikes
	// happen at explicit scheduled times, mutate the real platform, and
	// reach the controller only through the epoch times it ordinarily
	// observes; crash windows set the per-function crash probability the
	// trainer draws each epoch attempt against. Storage retries in a
	// brownout follow fault.MaxAttempts and fault.Backoff. A nil or empty schedule
	// injects nothing, and the two give bit-identical results.
	Faults *fault.Schedule

	Controller Controller // optional
}

// Runner executes jobs on one simulated substrate.
type Runner struct {
	Noise Noise

	sim     *sim.Simulation
	compute *faas.Platform

	// delayPaid tracks manually-scaled services whose provisioning delay has
	// already been paid on this substrate: an ElastiCache cluster or
	// parameter-server VM starts up once per workflow, not once per group or
	// per job (re-using it later in the runner's lifetime is free in time).
	delayPaid map[storage.Kind]bool

	// obs records the executor's trace (startup/epoch/restart spans, failure
	// instants, delayed-restart overlap windows) on the job's own timeline.
	// Nil disables recording.
	obs *obs.Observer

	// The ground-truth noise streams, held by value: the runner is their one
	// owner, and a copy would fork a stream.
	stragglerRng, syncRng, loadRng, failureRng sim.Rand

	// job is the job Run runs on, reused run after run.
	job Job
}

// NewRunner returns a runner on a fresh simulated substrate seeded with
// seed: the default serverless account, price book and noise.
func NewRunner(seed uint64) *Runner {
	s := sim.New(seed)
	return &Runner{
		Noise:        DefaultNoise(),
		sim:          s,
		compute:      faas.NewDefault(s),
		delayPaid:    make(map[storage.Kind]bool),
		stragglerRng: s.Stream("trainer.straggler"),
		syncRng:      s.Stream("trainer.sync"),
		loadRng:      s.Stream("trainer.load"),
		failureRng:   s.Stream("trainer.failure"),
	}
}

// SetObserver attaches an observability sink to the runner and its account:
// trainer events land on the job timeline, serverless events (cold starts,
// warm-pool churn) on the substrate clock. Nil detaches.
func (r *Runner) SetObserver(o *obs.Observer) {
	r.obs = o
	r.compute.SetObserver(o)
}

// Observer returns the runner's observability sink (nil when detached).
func (r *Runner) Observer() *obs.Observer { return r.obs }

// Compute returns the substrate's serverless account.
func (r *Runner) Compute() *faas.Platform { return r.compute }

// invokeGroup is Compute().InvokeGroup with the numbers added to a denial:
// the platform's sentinel is bare, and the trainer's errors reach a person.
func (r *Runner) invokeGroup(n, memMB int) (faas.GroupStart, error) {
	pf := r.Compute()
	g, err := pf.InvokeGroup(n, memMB)
	if errors.Is(err, faas.ErrConcurrencyExceeded) {
		err = fmt.Errorf("%w: %d in flight + %d requested > %d", err, pf.InFlight(), n, pf.Cap())
	}
	return g, err
}

// acquireService returns the provisioning delay to pay for using a storage
// service now (zero if the service auto-scales or its startup was already
// paid earlier in this runner's lifetime).
func (r *Runner) acquireService(kind storage.Kind) float64 {
	if r.delayPaid[kind] {
		return 0
	}
	r.delayPaid[kind] = true
	return storage.New(kind).ProvisionDelay()
}

// Job is one training job: its configuration, the group it runs on, the
// result it fills and its own clock. Run steps the runner's own job to the
// end; RunShared steps jobs of its own one epoch at a time, interleaved on
// the shared clock.
type Job struct {
	r     *Runner
	cfg   Config
	alloc cost.Allocation
	res   *Result
	clock float64 // job-relative elapsed time

	// held is how many of alloc's functions the job holds on the account:
	// alloc.N while it runs, fewer while killed sandboxes await their
	// replacements, 0 once released.
	held int

	// next is a delayed-restart target, pending while switching is set: its
	// group starts up during the current epoch and takes over at its end.
	// nextStart is the job clock when it began starting (the left edge of
	// the Fig. 8 overlap window in the trace), nextReady when it is ready.
	next                 cost.Allocation
	switching            bool
	nextStart, nextReady float64

	// asyncProgress accumulates fractional statistical progress under ASP;
	// the loss engine advances one epoch each time it crosses 1.
	asyncProgress float64
	// initialState snapshots the engine before training so a failure
	// without checkpointing can lose everything (DisableCheckpoint); ckpt
	// holds the job's last checkpoint, the state a restarted group resumes
	// from (empty until the first write).
	initialState, ckpt []float64

	// faultCursor walks Config.Faults' instantaneous events (kills and
	// warm reclaims) as the job clock passes them; gate drives the
	// deterministic brownout error injection; ckptOff latches the degraded
	// checkpoint-less mode once the retry policy is exhausted.
	faultCursor int
	gate        fault.Gate
	ckptOff     bool

	epoch    int
	done     bool
	finished bool
}

// Run runs cfg to convergence, MaxEpochs or a Stop decision on the
// runner's own job and fills res, reusing res.Trace's backing array, so in
// steady state a run touches no heap. A run that fails leaves no function
// admitted.
//
// Run mirrors the job's clock onto the shared clock after each epoch, so
// its first epoch (and a controller's first decision) runs on the shared
// clock at the admission instant; RunShared runs a job's first epoch at
// admission + startup. A fixed allocation without faults gives the same
// Result either way.
func (r *Runner) Run(cfg Config, res *Result) error {
	j := &r.job
	if err := j.start(r, cfg, res); err != nil {
		return err
	}
	// advanced is how much of the job's clock has been mirrored onto the
	// shared clock.
	advanced := 0.0
	for !j.done {
		if err := j.step(); err != nil {
			return err
		}
		// Advance the shared clock so time-based substrate events
		// (warm-sandbox expiry) fire as the job progresses. RunShared
		// drives this itself when jobs interleave.
		if d := j.clock - advanced; d > 0 {
			r.sim.RunUntil(r.sim.Now() + sim.Time(d))
		}
		advanced = j.clock
	}
	j.finish()
	return nil
}

// start resets j for cfg and res for its result, keeping j's snapshot
// buffers and res.Trace's backing array, and admits the first group.
func (j *Job) start(r *Runner, cfg Config, res *Result) error {
	if cfg.Workload == nil || cfg.Engine == nil {
		return fmt.Errorf("trainer: nil workload or engine")
	}
	if cfg.MaxEpochs <= 0 {
		cfg.MaxEpochs = 1000
	}
	*res = Result{Trace: res.Trace[:0]}
	*j = Job{r: r, cfg: cfg, alloc: cfg.Alloc, res: res, faultCursor: -1, initialState: j.initialState[:0], ckpt: j.ckpt[:0]}
	j.initialState = cfg.Engine.AppendSnapshot(j.initialState)
	return j.startGroup(true)
}

// step executes one epoch (plus any controller decision). Calling step on a
// finished job is a no-op. A step that fails ends the job and releases
// everything it holds.
func (j *Job) step() error {
	if j.done {
		return nil
	}
	j.epoch++
	rep, err := j.runEpoch()
	if err != nil {
		return j.fail(err)
	}
	res := j.res
	res.Trace = append(res.Trace, rep)
	res.Epochs = j.epoch
	res.FinalLoss = rep.Loss

	if j.cfg.TargetLoss > 0 && rep.Loss <= j.cfg.TargetLoss {
		res.Converged = true
		j.done = true
		return nil
	}
	if j.cfg.Controller != nil {
		dec := j.cfg.Controller(j.epoch, rep.Loss, j.clock, res.TotalCost)
		if dec.PlanningSeconds > 0 {
			j.clock += dec.PlanningSeconds
			res.OverheadTime += dec.PlanningSeconds
			res.PlanningTime += dec.PlanningSeconds
		}
		if dec.Stop {
			j.done = true
			return nil
		}
		if dec.Switch && dec.NewAlloc != j.alloc {
			if err := j.applySwitch(dec.NewAlloc, dec.Delayed); err != nil {
				return j.fail(err)
			}
		}
	}
	if j.epoch >= j.cfg.MaxEpochs {
		j.done = true
	}
	return nil
}

// fail ends the job on err. A failed job holds nothing: its groups go back
// to the account here, so finish releases nothing a second time.
func (j *Job) fail(err error) error {
	j.release()
	j.done = true
	return err
}

// finish releases the job's resources and returns its result. finish is
// idempotent.
func (j *Job) finish() *Result {
	if !j.finished {
		j.finished = true
		j.release()
		if math.IsNaN(j.clock) {
			panic("trainer: job clock is NaN")
		}
		j.res.JCT = j.clock
	}
	j.done = true
	return j.res
}

// release returns what the job holds of its group, and the delayed group
// if one was admitted, to the account.
func (j *Job) release() {
	pf := j.r.compute
	pf.ReleaseGroup(j.held, j.alloc.MemMB, 0)
	j.held = 0
	if j.switching {
		pf.ReleaseGroup(j.next.N, j.next.MemMB, 0)
		j.switching = false
	}
}

// startGroup invokes the function group for the job's allocation, charging
// startup and the initial data load; initial=false marks restarts (the
// model is pulled from storage as well).
func (j *Job) startGroup(initial bool) error {
	r, a, w := j.r, j.alloc, j.cfg.Workload
	g, err := r.invokeGroup(a.N, a.MemMB)
	if err != nil {
		return fmt.Errorf("trainer: invoking %v: %w", a, err)
	}
	j.held = a.N
	start := g.StartDelay
	if p := r.acquireService(a.Storage); p > start {
		start = p // storage provisioning overlaps the cold start
	}
	load := r.loadTime(w, a)
	if !initial {
		// A restarted group must also pull the checkpointed model.
		load += storage.New(a.Storage).TransferTime(a.N, w.ParamsMB)
		j.restoreCheckpoint()
	}
	j.clock += start + load
	j.res.OverheadTime += start + load
	if initial {
		j.res.StartupTime = start + load
	}
	if r.obs.Enabled() {
		name := "startup"
		if !initial {
			name = "restart_startup"
		}
		r.obs.Trace().SpanAt(j.clock-(start+load), start+load, "job", "trainer", name,
			obs.I("n", a.N), obs.I("mem_mb", a.MemMB), obs.S("storage", a.Storage.String()),
			obs.F("start_s", start), obs.F("load_s", load))
		r.obs.Stats().Observe("trainer.startup_s", start+load)
	}
	j.billLoad(a, load)
	return nil
}

// billLoad bills a started group's load of `load` seconds: its compute on
// the account, then its function, invocation and storage costs.
func (j *Job) billLoad(a cost.Allocation, load float64) {
	fn := j.r.compute.BillCompute(a.N, a.MemMB, load)
	inv := float64(a.N) * pricing.FunctionInvoke
	ld := storage.LoadCost(a.N)
	j.res.FunctionCost += fn
	j.res.InvokeCost += inv
	j.res.StorageCost += ld
	j.res.TotalCost += fn + inv + ld
}

func (r *Runner) loadTime(w *workload.Model, a cost.Allocation) float64 {
	t := w.Dataset.PartitionSizeMB(a.N) / storage.LoadMBps
	if r.Noise.LoadJitter > 0 {
		t *= r.loadRng.Jitter(r.Noise.LoadJitter)
	}
	return t
}

// runEpoch executes one epoch under the current allocation: k iterations of
// compute + sync with ground-truth noise, engine advance, billing, and the
// takeover of a pending delayed switch.
func (j *Job) runEpoch() (EpochReport, error) {
	r, w, a, epoch := j.r, j.cfg.Workload, j.alloc, j.epoch
	svc := storage.New(a.Storage)

	computeT := r.epochCompute(w, a, j.cfg.Async)
	syncT := r.epochSync(w, a, svc, j.cfg.Async)
	// Fault windows inflate this epoch's components: stragglers slow
	// compute, brownouts slow the storage-bound synchronization (outside a
	// window both factors are 1, and x*1 is exact). The controller is not
	// told — it sees the inflated epoch time through its normal
	// observations, which is what forces a genuine re-plan (a path= entry in
	// the decision log) rather than a scripted one.
	computeT *= j.cfg.Faults.StragglerFactor(j.clock)
	lat, _, _ := j.cfg.Faults.BrownoutAt(j.clock)
	syncT *= lat
	epochT := computeT + syncT

	// Failure injection: any crashed worker aborts the BSP epoch. The
	// group loses a fraction of the epoch (billed — the platform charges
	// for the wasted compute), the crashed sandbox restarts and re-pulls
	// the last checkpoint, and the epoch retries. Without checkpointing a
	// single crash throws the job back to the initial model.
	if err := j.scheduledFaults(epochT); err != nil {
		return EpochReport{}, err
	}

	var loss float64
	if j.cfg.Async {
		// Stale gradients dilute each wall epoch's statistical progress.
		j.asyncProgress += asyncEfficiency(a.N)
		loss = j.cfg.Engine.Loss()
		for j.asyncProgress >= 1 {
			loss = j.cfg.Engine.NextEpoch()
			j.asyncProgress--
		}
	} else {
		loss = j.cfg.Engine.NextEpoch()
	}

	// Billing: n functions ran the epoch; storage billed per its pattern.
	funcCost := r.compute.BillCompute(a.N, a.MemMB, epochT)
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
	j.clock += epochT
	j.res.ComputeTime += computeT
	j.res.SyncTime += syncT
	j.res.FunctionCost += funcCost
	j.res.StorageCost += stoCost
	j.res.TotalCost += funcCost + stoCost
	if r.obs.Enabled() {
		r.obs.Trace().SpanAt(j.clock-epochT, epochT, "job", "trainer", "epoch",
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
	j.checkpoint()

	// A pending delayed switch takes over here: the new group has been
	// starting up while this epoch ran; any residual startup time not
	// hidden by the epoch surfaces as overhead (Fig. 8).
	if j.switching {
		next := j.next
		residual := j.nextReady - j.clock
		if residual > 0 {
			j.clock += residual
			j.res.OverheadTime += residual
		}
		// Old group is released; new group pulls the model directly.
		r.compute.ReleaseGroup(j.held, a.MemMB, 0)
		handoff := storage.New(next.Storage).TransferTime(next.N, w.ParamsMB)
		j.clock += handoff
		j.res.OverheadTime += handoff
		j.alloc, j.held, j.switching = next, next.N, false
		j.res.Restarts++
		if r.obs.Enabled() {
			// The Fig. 8 overlap window: the new group's startup ran
			// concurrently with the old group's epoch; only the residual
			// (plus the model handoff) surfaced as overhead.
			r.obs.Trace().SpanAt(j.nextStart, j.clock-j.nextStart, "job", "trainer", "restart_overlap",
				obs.I("n", next.N), obs.I("mem_mb", next.MemMB), obs.S("storage", next.Storage.String()),
				obs.F("residual_s", math.Max(residual, 0)), obs.F("handoff_s", handoff))
			r.obs.Stats().Inc("trainer.delayed_takeovers")
			r.obs.Stats().Add("trainer.restart_residual_s", math.Max(residual, 0))
		}
	}
	return rep, nil
}

// epochCompute is the epoch's gradient computation wall time: under BSP the
// slowest of n straggling functions, under ASP (workers proceed
// independently) the mean worker.
func (r *Runner) epochCompute(w *workload.Model, a cost.Allocation, async bool) float64 {
	base := w.Dataset.PartitionSizeMB(a.N) * w.U(a.MemMB)
	if r.Noise.StragglerSigma == 0 {
		return base
	}
	if async {
		return base * r.stragglerRng.LogNormal(0, r.Noise.StragglerSigma)
	}
	return base * r.stragglerRng.MaxLogNormal(a.N, r.Noise.StragglerSigma)
}

// epochSync is the epoch's synchronization wall time with network
// instability that grows with n. Under BSP each iteration serializes the
// storage service's sync pattern; under ASP each worker pushes its gradient
// and pulls the model (two transfers) per iteration, overlapped across
// workers rather than serialized.
func (r *Runner) epochSync(w *workload.Model, a cost.Allocation, svc *storage.Service, async bool) float64 {
	var base float64
	if async {
		base = float64(w.IterationsPerEpoch(a.N)) * 2 * svc.TransferTime(a.N, w.ParamsMB)
	} else {
		base = float64(w.IterationsPerEpoch(a.N)) * svc.SyncTime(a.N, w.ParamsMB)
	}
	sigma := r.Noise.SyncBase + r.Noise.SyncPerN*float64(a.N)
	if sigma == 0 {
		return base
	}
	return base * r.syncRng.LogNormal(0, sigma)
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
func (j *Job) applySwitch(next cost.Allocation, delayed bool) error {
	r := j.r
	if delayed {
		g, err := r.invokeGroup(next.N, next.MemMB)
		if err != nil {
			return fmt.Errorf("trainer: delayed switch to %v: %w", next, err)
		}
		start := g.StartDelay
		if p := r.acquireService(next.Storage); p > start {
			start = p // a new storage service provisions during the overlap
		}
		load := r.loadTime(j.cfg.Workload, next)
		j.next, j.switching = next, true
		j.nextStart = j.clock
		j.nextReady = j.clock + start + load
		if r.obs.Enabled() {
			r.obs.Trace().InstantAt(j.clock, "job", "trainer", "switch",
				obs.I("n", next.N), obs.I("mem_mb", next.MemMB), obs.S("storage", next.Storage.String()),
				obs.B("delayed", true), obs.F("ready_in_s", start+load))
			r.obs.Stats().Inc("trainer.switches.delayed")
		}
		// The new group bills its load immediately; it runs concurrently
		// with the old group's next epoch.
		j.billLoad(next, load)
		return nil
	}
	// Immediate restart: release the old group, start the new one with the
	// full startup + reload + model pull on the critical path.
	r.compute.ReleaseGroup(j.held, j.alloc.MemMB, 0)
	j.alloc, j.held = next, 0
	if r.obs.Enabled() {
		r.obs.Trace().InstantAt(j.clock, "job", "trainer", "switch",
			obs.I("n", next.N), obs.I("mem_mb", next.MemMB), obs.S("storage", next.Storage.String()),
			obs.B("delayed", false))
		r.obs.Stats().Inc("trainer.switches.immediate")
	}
	if err := j.startGroup(false); err != nil {
		return err
	}
	j.res.Restarts++
	return nil
}

// checkpoint writes the engine state to the job's own checkpoint through
// the storage substrate. Under an active brownout window the write runs
// through the bounded retry policy; exhausting it degrades the job to
// checkpoint-less mode instead of erroring, and writes nothing.
func (j *Job) checkpoint() {
	if j.cfg.DisableCheckpoint || j.ckptOff {
		return
	}
	if j.brownoutOp("checkpoint") {
		j.ckpt = j.cfg.Engine.AppendSnapshot(j.ckpt[:0])
		if r := j.r; r.obs.Enabled() {
			r.obs.Stats().Inc("store.puts")
			r.obs.Stats().Add("store.put_floats", float64(len(j.ckpt)))
		}
	}
}

// restoreCheckpoint pulls the job's last checkpoint back into the engine
// after a restart; a job with checkpoints off restores nothing. Storage
// trouble degrades rather than kills the job: a browned-out read that
// exhausts its retries, or a checkpoint that no longer restores, drops the
// job to checkpoint-less mode with Result.Degraded set and training
// continues from the in-memory state.
func (j *Job) restoreCheckpoint() {
	if j.cfg.DisableCheckpoint || j.ckptOff || !j.brownoutOp("restore") {
		return
	}
	if r := j.r; r.obs.Enabled() {
		r.obs.Stats().Inc("store.gets")
		r.obs.Stats().Add("store.get_floats", float64(len(j.ckpt)))
	}
	if len(j.ckpt) > 0 {
		if err := j.cfg.Engine.Restore(j.ckpt); err != nil {
			j.degrade("corrupt checkpoint: " + err.Error())
		}
	}
}
