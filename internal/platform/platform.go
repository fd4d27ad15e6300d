// Package platform is the execution substrate the CE-scaling decision stack
// (internal/core, internal/scheduler, internal/trainer) drives: one
// discrete-event kernel (internal/sim) carrying a serverless function
// platform (internal/faas), an in-memory parameter store and one
// latency/price model per storage service (internal/storage), all billing
// under one price book. Every experiment and every seed test runs on it.
package platform

import (
	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Backend is one deterministic simulated substrate.
type Backend struct {
	sim      *sim.Simulation
	plat     *faas.Platform
	store    *storage.Store
	prices   pricing.PriceBook
	services map[storage.Kind]*storage.Service
	obs      *obs.Observer
}

// New returns a substrate seeded with seed: default platform limits, startup
// model, price book and one storage model per extended kind.
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
	return b
}

// Rand returns the simulation's named deterministic random stream.
func (b *Backend) Rand(name string) *sim.Rand { return b.sim.Rand(name) }

// Prices returns the price book the substrate bills under.
func (b *Backend) Prices() pricing.PriceBook { return b.prices }

// SetObserver points the substrate's observability at o: the serverless
// platform's events/metrics and the parameter-store operation counters all
// record into it, stamped with the DES clock. Nil detaches.
func (b *Backend) SetObserver(o *obs.Observer) {
	b.obs = o
	b.plat.SetObserver(o)
}

// Sim exposes the discrete-event kernel for drivers that schedule their own
// events on the shared virtual clock (the multi-tenant cluster scheduler).
func (b *Backend) Sim() *sim.Simulation { return b.sim }

// ConfigureSharding grows the kernel to at least shards shards, sets the
// conservative lookahead window (the minimum delay of any cross-shard Post;
// pass +Inf for none) and bounds how many shards may advance concurrently
// inside one window. Call before driving events; the defaults (1 shard, 1
// worker, infinite lookahead) are the single-queue kernel. Results are
// byte-identical at every setting for workloads that keep per-shard
// ownership (see internal/sim).
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

// Platform returns the substrate's default serverless account.
func (b *Backend) Platform() *faas.Platform { return b.plat }

// Store returns the in-memory parameter store.
func (b *Backend) Store() *storage.Store { return b.store }

// Service returns the latency/price model of one storage service.
func (b *Backend) Service(kind storage.Kind) *storage.Service { return b.services[kind] }

// Put stores a copy of vec under key, overwriting any previous value.
func (b *Backend) Put(key string, vec []float64) {
	b.store.Put(key, vec)
	if b.obs.Enabled() {
		b.obs.Stats().Inc("store.puts")
		b.obs.Stats().Add("store.put_floats", float64(len(vec)))
	}
}

// Get returns the vector stored under key, or ok=false when absent.
func (b *Backend) Get(key string) (vec []float64, ok bool) {
	vec, ok = b.store.Get(key)
	if b.obs.Enabled() {
		b.obs.Stats().Inc("store.gets")
		b.obs.Stats().Add("store.get_floats", float64(len(vec)))
	}
	return vec, ok
}

// Advance moves the shared clock d seconds forward, firing due events
// (warm-sandbox expiry). Jobs keep their own timelines; their drivers mirror
// job progress onto the shared clock through Advance.
func (b *Backend) Advance(d float64) {
	if d <= 0 {
		return
	}
	b.sim.RunUntil(b.sim.Now() + sim.Time(d))
}
