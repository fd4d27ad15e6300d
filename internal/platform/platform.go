// Package platform defines the substrate-agnostic contract between the
// CE-scaling decision stack (internal/core, internal/scheduler,
// internal/trainer) and the execution substrate it drives. The controller
// only ever needs three narrow capabilities:
//
//   - Compute: provision and invoke groups of n functions at memory m, with
//     cold/warm start semantics and per-invocation + per-GB-second billing;
//   - ParamStore: put/get model state plus the per-service latency/price
//     metering (object-size limits, (3n-2) vs (2n-2) sync patterns) the
//     allocation decisions consume;
//   - Clock: a notion of time, simulated or wall.
//
// Two backends implement the contract: platform/simbackend wraps the
// discrete-event simulation (internal/faas + internal/storage +
// internal/sim) and is the default for every experiment, and
// platform/livebackend wraps the live substrates (internal/lambda +
// internal/objstore + internal/psnet) so the same controller code executes
// Algorithm 2's δ-triggered re-allocation and delayed restart against real
// concurrent workers.
package platform

import (
	"repro/internal/obs"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/storage"
)

// StorageKind identifies one external storage service. It is an alias of the
// modeling package's Kind so allocation points flow between layers without
// conversion; decision-stack packages refer to kinds only through this name.
type StorageKind = storage.Kind

// Storage service kinds, re-exported for the decision stack.
const (
	S3          = storage.S3
	DynamoDB    = storage.DynamoDB
	ElastiCache = storage.ElastiCache
	VMPS        = storage.VMPS
	Pocket      = storage.Pocket
)

// StorageKinds lists the paper's four evaluated services in display order.
func StorageKinds() []StorageKind { return storage.Kinds() }

// ExtendedStorageKinds adds the optional Pocket service to the evaluated four.
func ExtendedStorageKinds() []StorageKind { return storage.ExtendedKinds() }

// GroupStart summarises one admitted function group.
type GroupStart struct {
	StartDelay float64 // start latency of the slowest member, in seconds
	Cold       int     // members that cold-started
}

// ComputeMeter is the accumulated function-platform bill.
type ComputeMeter struct {
	Invocations uint64
	GBSeconds   float64
	InvokeCost  float64
	ComputeCost float64
}

// Total returns the platform bill so far.
func (m ComputeMeter) Total() float64 { return m.InvokeCost + m.ComputeCost }

// Compute is the function-execution substrate: group invocation under a
// concurrency cap, cold/warm start behaviour, and compute billing.
type Compute interface {
	// InvokeGroup admits n concurrent functions of memMB memory and reports
	// when the slowest of them starts. The group counts against the
	// concurrency cap until ReleaseGroup.
	InvokeGroup(n, memMB int) (GroupStart, error)
	// ReleaseGroup ends n functions of memMB, billing secondsEach compute
	// time per function and returning their sandboxes to the warm pool.
	ReleaseGroup(n, memMB int, secondsEach float64)
	// BillCompute charges compute time for n admitted functions without
	// touching admission state (per-epoch billing while the group persists).
	BillCompute(n, memMB int, secondsEach float64)
	// ColdStartEstimate returns the deterministic (jitter-free) cold-start
	// latency for memMB, as the analytical models assume it.
	ColdStartEstimate(memMB int) float64
	// MaxConcurrency reports the account-level concurrent execution cap.
	MaxConcurrency() int
	// InFlight reports how many function instances are currently admitted.
	InFlight() int
	// Meter returns a snapshot of the platform bill so far.
	Meter() ComputeMeter
}

// StorageService is the latency/price metering of one external storage
// service: what the cost models and the trainer charge a synchronization,
// transfer or provisioned-runtime second against.
type StorageService interface {
	Kind() StorageKind
	// TransferTime returns the time to move one object of sizeMB between a
	// function and the service, for one of n concurrent clients.
	TransferTime(n int, sizeMB float64) float64
	// SyncTime returns the wall-clock time of one parameter synchronization
	// of a model of modelMB across n functions (the (3n-2)/(2n-2) patterns).
	SyncTime(n int, modelMB float64) float64
	// SyncRequestCost returns the $ cost of one synchronization's requests
	// for request-charged services; 0 for runtime-charged services.
	SyncRequestCost(n int, modelMB float64) float64
	// RuntimeCost returns the $ cost of keeping a runtime-charged service
	// provisioned for seconds; 0 for request-charged services.
	RuntimeCost(seconds float64) float64
	// ChargesByRequest reports whether the service bills per request rather
	// than per provisioned runtime.
	ChargesByRequest() bool
	// ProvisionDelay returns the startup delay before a manually-scaled
	// service is usable; zero for auto-scaling services.
	ProvisionDelay() float64
	// Supports reports whether a model of modelMB fits the service's object
	// size limit.
	Supports(modelMB float64) bool
}

// StoreStats counts model-state operations against the parameter store.
type StoreStats struct {
	Puts, Gets uint64
}

// ParamStore is the model-state substrate: real put/get of parameter
// vectors (checkpoints, handoff state) plus the per-service metering models.
type ParamStore interface {
	// Service returns the metering model for kind.
	Service(kind StorageKind) StorageService
	// Put stores a copy of vec under key, overwriting any previous value.
	Put(key string, vec []float64) error
	// Get returns the vector stored under key, or ok=false when absent.
	Get(key string) (vec []float64, ok bool, err error)
	// LoadCost returns the $ cost of the initial dataset load for n
	// functions (one GET per function against object storage).
	LoadCost(n int) float64
	// Stats reports cumulative operation counts.
	Stats() StoreStats
}

// Clock is the substrate's notion of time. The decision stack keeps each
// job's own timeline itself; Advance lets it mirror job progress onto the
// shared clock so time-based substrate events (warm-sandbox expiry) fire.
type Clock interface {
	// Now returns seconds since the substrate started.
	Now() float64
	// Advance moves the shared clock d seconds forward. The simulated clock
	// fires due events; a wall clock advances on its own and treats Advance
	// as a modeling directive for its shadow meters.
	Advance(d float64)
}

// Backend bundles the three capabilities plus the deterministic named
// random streams and the price book every substrate carries.
type Backend interface {
	Compute() Compute
	Params() ParamStore
	Clock() Clock
	// Rand returns the named deterministic random stream; streams with the
	// same name under the same seed produce the same sequence on every
	// backend, which is what makes sim/live decision parity possible.
	Rand(name string) *sim.Rand
	// Prices returns the price book the substrate bills under.
	Prices() pricing.PriceBook
	// Name identifies the backend ("sim", "live") for reporting.
	Name() string
}

// GroupRunner is optionally implemented by backends that execute real work
// per epoch: the trainer calls RunEpoch at every epoch boundary so live
// worker groups run one real synchronization barrier (model pull + gradient
// push over the wire). Simulated backends do not implement it.
type GroupRunner interface {
	// RunEpoch drives one epoch barrier across the group serving allocation
	// (n, memMB), using kind's wire pattern for the synchronization.
	RunEpoch(n, memMB int, kind StorageKind) error
}

// Observable is optionally implemented by backends that can record into an
// observability sink. Simulated backends stamp events with the DES clock
// (deterministic, byte-identical traces); the live backend stamps with
// seconds since it started.
type Observable interface {
	SetObserver(*obs.Observer)
}

// Attach points b's observability at o if the backend supports it; it is a
// no-op otherwise. A nil o detaches.
func Attach(b Backend, o *obs.Observer) {
	if ob, ok := b.(Observable); ok {
		ob.SetObserver(o)
	}
}

// ShardedKernel is optionally implemented by backends whose clock is a
// sharded discrete-event kernel (simbackend). shards is the number of
// independently advancing event queues, workers bounds how many execute
// concurrently inside one conservative window, and lookahead is the window
// width — the minimum virtual delay of any cross-shard interaction. The
// defaults (1, 1, +Inf) are the single-queue behavior; results are
// byte-identical at every setting for workloads that keep per-shard
// ownership (see internal/sim).
type ShardedKernel interface {
	ConfigureSharding(shards, workers int, lookahead float64)
}

// ConfigureSharding applies the kernel sharding parameters if the backend
// supports them; it is a no-op otherwise (the live backend has real
// concurrency instead of simulated shards).
func ConfigureSharding(b Backend, shards, workers int, lookahead float64) {
	if sk, ok := b.(ShardedKernel); ok {
		sk.ConfigureSharding(shards, workers, lookahead)
	}
}

// Closer is optionally implemented by backends holding real resources
// (sockets, servers, worker goroutines).
type Closer interface {
	Close() error
}

// Close tears down b if it holds real resources; it is a no-op otherwise.
func Close(b Backend) error {
	if c, ok := b.(Closer); ok {
		return c.Close()
	}
	return nil
}
