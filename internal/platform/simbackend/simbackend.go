// Package simbackend adapts the discrete-event simulation substrate
// (internal/faas + internal/storage + internal/sim) to the platform
// interfaces. It is the default backend: every experiment and every seed
// test runs on it, and its construction is bit-identical to the historical
// trainer.NewRunner wiring so existing results do not move.
package simbackend

import (
	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Backend is the DES substrate behind the platform interfaces.
type Backend struct {
	sim      *sim.Simulation
	plat     *faas.Platform
	store    *storage.Store
	prices   pricing.PriceBook
	services map[storage.Kind]*storage.Service
	obs      *obs.Observer

	compute simCompute
	params  simParams
	clock   simClock
}

// New returns a deterministic simulated substrate seeded with seed, wired
// exactly like the historical default runner: default platform limits,
// startup model, price book and one storage model per extended kind.
func New(seed uint64) *Backend {
	s := sim.New(seed)
	pb := pricing.Default()
	b := &Backend{
		sim:      s,
		plat:     faas.NewDefault(s),
		store:    storage.NewStore(),
		prices:   pb,
		services: make(map[storage.Kind]*storage.Service),
	}
	for _, k := range storage.ExtendedKinds() {
		b.services[k] = storage.New(k, pb)
	}
	b.compute = simCompute{b}
	b.params = simParams{b}
	b.clock = simClock{b}
	return b
}

// Compute implements platform.Backend.
func (b *Backend) Compute() platform.Compute { return b.compute }

// Params implements platform.Backend.
func (b *Backend) Params() platform.ParamStore { return b.params }

// Clock implements platform.Backend.
func (b *Backend) Clock() platform.Clock { return b.clock }

// Rand implements platform.Backend via the simulation's named streams.
func (b *Backend) Rand(name string) *sim.Rand { return b.sim.Rand(name) }

// Prices implements platform.Backend.
func (b *Backend) Prices() pricing.PriceBook { return b.prices }

// Name implements platform.Backend.
func (b *Backend) Name() string { return "sim" }

// SetObserver implements platform.Observable: the serverless platform's
// events/metrics and the parameter-store operation counters all record into
// o, stamped with the DES clock.
func (b *Backend) SetObserver(o *obs.Observer) {
	b.obs = o
	b.plat.SetObserver(o)
}

// Sim exposes the discrete-event kernel for drivers that schedule their own
// events on the shared virtual clock (the multi-tenant cluster scheduler).
func (b *Backend) Sim() *sim.Simulation { return b.sim }

// ConfigureSharding implements platform.ShardedKernel: it grows the kernel
// to at least shards shards, sets the conservative lookahead window (the
// minimum delay of any cross-shard Post; pass +Inf for none) and bounds how
// many shards may advance concurrently inside one window. Call before
// driving events; the defaults (1 shard, 1 worker, infinite lookahead)
// reproduce the historical single-queue backend exactly.
func (b *Backend) ConfigureSharding(shards, workers int, lookahead float64) {
	b.sim.EnsureShards(shards)
	b.sim.SetWorkers(workers)
	b.sim.SetLookahead(lookahead)
}

// TenantPlatform returns a new serverless account owned by kernel shard
// `shard`, with its own limits and its own startup-jitter stream derived
// from name. Tenant accounts on distinct shards advance concurrently inside
// lookahead windows; the backend's default platform (shard 0) is untouched.
func (b *Backend) TenantPlatform(name string, shard int, limits faas.Limits) *faas.Platform {
	return faas.NewOnShard(b.sim.Shard(shard), "faas.startup/"+name, limits, faas.DefaultStartup(), b.prices)
}

// Platform exposes the underlying simulated serverless platform.
func (b *Backend) Platform() *faas.Platform { return b.plat }

// Store exposes the underlying in-memory parameter store.
func (b *Backend) Store() *storage.Store { return b.store }

// --- Compute adapter ---

type simCompute struct{ b *Backend }

func (c simCompute) InvokeGroup(n, memMB int) (platform.GroupStart, error) {
	g, err := c.b.plat.InvokeGroup(n, memMB)
	return platform.GroupStart(g), err
}

func (c simCompute) ReleaseGroup(n, memMB int, secondsEach float64) {
	c.b.plat.ReleaseGroup(n, memMB, secondsEach)
}

func (c simCompute) BillCompute(n, memMB int, secondsEach float64) {
	c.b.plat.BillCompute(n, memMB, secondsEach)
}

func (c simCompute) ColdStartEstimate(memMB int) float64 {
	return c.b.plat.ColdStartEstimate(memMB)
}

func (c simCompute) MaxConcurrency() int { return c.b.plat.Limits().MaxConcurrency }

func (c simCompute) InFlight() int { return c.b.plat.InFlight() }

func (c simCompute) Meter() platform.ComputeMeter {
	m := c.b.plat.Meter()
	return platform.ComputeMeter{
		Invocations: m.Invocations,
		GBSeconds:   m.GBSeconds,
		InvokeCost:  m.InvokeCost,
		ComputeCost: m.ComputeCost,
	}
}

// --- ParamStore adapter ---

type simParams struct{ b *Backend }

func (p simParams) Service(kind platform.StorageKind) platform.StorageService {
	return p.b.services[kind]
}

func (p simParams) Put(key string, vec []float64) error {
	p.b.store.Put(key, vec)
	if p.b.obs.Enabled() {
		p.b.obs.Stats().Inc("store.puts")
		p.b.obs.Stats().Add("store.put_floats", float64(len(vec)))
	}
	return nil
}

func (p simParams) Get(key string) ([]float64, bool, error) {
	vec, ok := p.b.store.Get(key)
	if p.b.obs.Enabled() {
		p.b.obs.Stats().Inc("store.gets")
		p.b.obs.Stats().Add("store.get_floats", float64(len(vec)))
	}
	return vec, ok, nil
}

func (p simParams) LoadCost(n int) float64 { return storage.LoadCost(p.b.prices, n) }

func (p simParams) Stats() platform.StoreStats {
	st := p.b.store.Stats()
	return platform.StoreStats{Puts: st.Puts, Gets: st.Gets}
}

// --- Clock adapter ---

type simClock struct{ b *Backend }

func (c simClock) Now() float64 { return float64(c.b.sim.Now()) }

func (c simClock) Advance(d float64) {
	if d <= 0 {
		return
	}
	c.b.sim.RunUntil(c.b.sim.Now() + sim.Time(d))
}
