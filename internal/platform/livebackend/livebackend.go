// Package livebackend adapts the live execution substrates
// (internal/lambda + internal/objstore + internal/psnet) to the platform
// interfaces, so the CE-scaling controller — unchanged — drives real
// concurrent workers instead of discrete-event models.
//
// A function group invoked through Compute is n real invocations inside the
// local serverless executor: each worker is a goroutine occupying an
// execution environment (cold/warm, concurrency-capped) for the group's
// lifetime. At every epoch boundary the trainer calls RunEpoch and the group
// executes one real synchronization barrier over the wire: under a stateless
// storage kind every worker uploads a gradient-sized object to the HTTP
// object store, a designated worker aggregates and re-publishes the model,
// and everyone re-pulls it (the paper's (3n-2) pattern); under VM-PS every
// worker pushes to the group's TCP parameter server and blocks until the
// round's aggregated update lands (the (2n-2) pattern). Checkpoints written
// through ParamStore travel over real HTTP. Algorithm 2's delayed restart
// therefore overlaps a second real worker group with the running epoch, and
// re-allocation tears groups down and spins them up for real.
//
// Timing, billing and randomness come from a shadow simulated substrate with
// the same seed: the controller's decision inputs (epoch-time and cost
// metering, start delays, noise draws) are identical on both backends, which
// is what makes sim/live decision parity testable, while the training
// statistics stay with the job's loss engine. The live substrate contributes
// the actual execution: environments, sockets, barriers and payloads.
package livebackend

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/distml"
	"repro/internal/lambda"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/platform/simbackend"
	"repro/internal/pricing"
	"repro/internal/psnet"
	"repro/internal/sim"
)

// Config parameterizes the live substrate.
type Config struct {
	// Seed drives the shadow metering substrate and all named random
	// streams; equal seeds make sim and live decisions comparable.
	Seed uint64
	// MaxConcurrency caps concurrent worker invocations (default 3000, the
	// same account cap the shadow platform enforces).
	MaxConcurrency int
	// WorkerTimeout bounds one worker invocation's lifetime (default 6h —
	// a worker lives as long as its group).
	WorkerTimeout time.Duration
	// SpawnTimeout bounds how long InvokeGroup waits for all workers to be
	// live inside their execution environments (default 30s).
	SpawnTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrency <= 0 {
		c.MaxConcurrency = 3000
	}
	if c.WorkerTimeout <= 0 {
		c.WorkerTimeout = 6 * time.Hour
	}
	if c.SpawnTimeout <= 0 {
		c.SpawnTimeout = 30 * time.Second
	}
	return c
}

// Backend is the live substrate behind the platform interfaces.
type Backend struct {
	cfg     Config
	shadow  *simbackend.Backend
	invoker *lambda.Invoker

	obj     *objstore.Server
	httpSrv *http.Server
	client  *objstore.Client
	objURL  string

	start time.Time
	obs   *obs.Observer

	mu         sync.Mutex
	groups     []*liveGroup
	nextGID    int
	registered map[int]string // memMB -> function name
	barriers   uint64
	psRounds   int
	closed     bool

	ckptMu sync.Mutex
	ckpt   []float64
}

// New starts the live substrate: a local object store served over HTTP on a
// loopback socket, a serverless function executor, and a shadow metering
// substrate seeded with cfg.Seed.
func New(cfg Config) (*Backend, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("livebackend: object store listener: %w", err)
	}
	obj := objstore.NewServer()
	srv := &http.Server{Handler: obj}
	go srv.Serve(ln)
	url := "http://" + ln.Addr().String()
	b := &Backend{
		cfg:        cfg,
		shadow:     simbackend.New(cfg.Seed),
		invoker:    lambda.NewInvoker(cfg.MaxConcurrency),
		obj:        obj,
		httpSrv:    srv,
		client:     objstore.NewClient(url),
		objURL:     url,
		start:      time.Now(),
		registered: make(map[int]string),
	}
	return b, nil
}

// Compute implements platform.Backend.
func (b *Backend) Compute() platform.Compute { return liveCompute{b} }

// Params implements platform.Backend.
func (b *Backend) Params() platform.ParamStore { return liveParams{b} }

// Clock implements platform.Backend. Now is wall time since the backend
// started; Advance drives the shadow substrate's virtual clock so its
// time-based behaviour (warm-sandbox expiry) matches the sim backend.
func (b *Backend) Clock() platform.Clock { return liveClock{b} }

// Rand implements platform.Backend with the shadow's named streams, so
// noise draws are identical to the sim backend under the same seed.
func (b *Backend) Rand(name string) *sim.Rand { return b.shadow.Rand(name) }

// Prices implements platform.Backend.
func (b *Backend) Prices() pricing.PriceBook { return b.shadow.Prices() }

// Name implements platform.Backend.
func (b *Backend) Name() string { return "live" }

// ObjectStoreURL returns the HTTP address of the backing object store.
func (b *Backend) ObjectStoreURL() string { return b.objURL }

// SetObserver implements platform.Observable. Unlike the sim backend, live
// events are stamped with wall-clock seconds since the backend started —
// the substrate executes for real, so its traces record what actually
// happened, when, and are NOT byte-identical across runs. The shadow
// metering substrate stays unobserved to keep modeled and measured
// timestamps out of the same scope.
func (b *Backend) SetObserver(o *obs.Observer) { b.obs = o }

// now is the wall-clock trace timestamp: seconds since the backend started.
func (b *Backend) now() float64 { return time.Since(b.start).Seconds() }

// observeStats copies the substrate's cumulative counters into the
// observer's metrics so an exported snapshot reflects the real work done.
func (b *Backend) observeStats() {
	if !b.obs.Enabled() {
		return
	}
	s := b.Stats()
	st := b.obs.Stats()
	st.Set("live.invocations", float64(s.Invocations))
	st.Set("live.cold_starts", float64(s.ColdStarts))
	st.Set("live.epoch_barriers", float64(s.EpochBarriers))
	st.Set("live.ps_rounds", float64(s.PSRounds))
	st.Set("live.obj_puts", float64(s.ObjPuts))
	st.Set("live.obj_gets", float64(s.ObjGets))
	os := b.obj.Stats()
	st.Set("live.obj_bytes_in", float64(os.BytesIn))
	st.Set("live.obj_bytes_out", float64(os.BytesOut))
}

// Stats summarizes the real work the substrate performed.
type Stats struct {
	Invocations   uint64 // worker invocations dispatched
	ColdStarts    uint64 // fresh execution environments created
	EpochBarriers uint64 // real synchronization barriers executed
	PSRounds      int    // BSP rounds completed by parameter servers
	ObjPuts       uint64 // object-store writes (gradients, models, checkpoints)
	ObjGets       uint64 // object-store reads
	LiveGroups    int    // worker groups currently admitted
}

// Stats returns a snapshot of the live substrate's counters.
func (b *Backend) Stats() Stats {
	ls := b.invoker.Stats()
	os := b.obj.Stats()
	b.mu.Lock()
	defer b.mu.Unlock()
	rounds := b.psRounds
	for _, g := range b.groups {
		if g.ps != nil {
			rounds += g.ps.Round()
		}
	}
	return Stats{
		Invocations:   ls.Invocations,
		ColdStarts:    ls.ColdStarts,
		EpochBarriers: b.barriers,
		PSRounds:      rounds,
		ObjPuts:       os.Puts,
		ObjGets:       os.Gets,
		LiveGroups:    len(b.groups),
	}
}

// Close tears down every live group, the parameter servers and the object
// store. It implements platform.Closer.
func (b *Backend) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	groups := append([]*liveGroup(nil), b.groups...)
	b.groups = nil
	b.mu.Unlock()
	for _, g := range groups {
		g.shutdown()
	}
	return b.httpSrv.Close()
}

// --- Compute ---

type liveCompute struct{ b *Backend }

func (c liveCompute) InvokeGroup(n, memMB int) (platform.GroupStart, error) {
	g, err := c.b.shadow.Compute().InvokeGroup(n, memMB)
	if err != nil {
		return platform.GroupStart{}, err
	}
	if err := c.b.spawnGroup(n, memMB); err != nil {
		c.b.shadow.Compute().ReleaseGroup(n, memMB, 0)
		return platform.GroupStart{}, err
	}
	return g, nil
}

func (c liveCompute) ReleaseGroup(n, memMB int, secondsEach float64) {
	c.b.releaseGroup(n, memMB)
	c.b.shadow.Compute().ReleaseGroup(n, memMB, secondsEach)
}

func (c liveCompute) BillCompute(n, memMB int, secondsEach float64) {
	c.b.shadow.Compute().BillCompute(n, memMB, secondsEach)
}

func (c liveCompute) ColdStartEstimate(memMB int) float64 {
	return c.b.shadow.Compute().ColdStartEstimate(memMB)
}

func (c liveCompute) MaxConcurrency() int { return c.b.cfg.MaxConcurrency }

func (c liveCompute) InFlight() int { return c.b.invoker.InFlight() }

func (c liveCompute) Meter() platform.ComputeMeter { return c.b.shadow.Compute().Meter() }

// --- ParamStore ---

type liveParams struct{ b *Backend }

func (p liveParams) Service(kind platform.StorageKind) platform.StorageService {
	return p.b.shadow.Params().Service(kind)
}

func (p liveParams) Put(key string, vec []float64) error {
	p.b.ckptMu.Lock()
	p.b.ckpt = append([]float64(nil), vec...)
	p.b.ckptMu.Unlock()
	return p.b.client.Put(key, distml.EncodeVec(vec))
}

func (p liveParams) Get(key string) ([]float64, bool, error) {
	data, ok, err := p.b.client.Get(key)
	if err != nil || !ok {
		return nil, false, err
	}
	vec, err := distml.DecodeVec(data)
	if err != nil {
		return nil, false, err
	}
	return vec, true, nil
}

func (p liveParams) LoadCost(n int) float64 { return p.b.shadow.Params().LoadCost(n) }

func (p liveParams) Stats() platform.StoreStats {
	st := p.b.obj.Stats()
	return platform.StoreStats{Puts: st.Puts, Gets: st.Gets}
}

// --- Clock ---

type liveClock struct{ b *Backend }

func (c liveClock) Now() float64 { return time.Since(c.b.start).Seconds() }

func (c liveClock) Advance(d float64) { c.b.shadow.Clock().Advance(d) }

// --- Live worker groups ---

type workerHello struct {
	Group  int `json:"group"`
	Worker int `json:"worker"`
}

type epochCmd struct {
	kind  platform.StorageKind
	model []float64
	epoch int
}

type liveGroup struct {
	id, n, memMB int
	b            *Backend

	cmds    []chan epochCmd
	acks    chan error
	enter   chan struct{}
	fail    chan error
	stop    chan struct{}
	stopped sync.Once
	done    sync.WaitGroup

	psOnce sync.Once
	ps     *psnet.Server
	psAddr string
	psErr  error

	epoch int
}

// ensureRegistered installs the worker handler for memMB (once per size).
func (b *Backend) ensureRegisteredLocked(memMB int) (string, error) {
	if name, ok := b.registered[memMB]; ok {
		return name, nil
	}
	name := fmt.Sprintf("ce-worker-%dmb", memMB)
	err := b.invoker.Register(name, lambda.Registration{
		MemoryMB: memMB,
		Timeout:  b.cfg.WorkerTimeout,
		Handler:  b.workerHandler,
	})
	if err != nil {
		return "", err
	}
	b.registered[memMB] = name
	return name, nil
}

// spawnGroup dispatches n real worker invocations and waits until every one
// is live inside its execution environment.
func (b *Backend) spawnGroup(n, memMB int) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return fmt.Errorf("livebackend: backend closed")
	}
	name, err := b.ensureRegisteredLocked(memMB)
	if err != nil {
		b.mu.Unlock()
		return err
	}
	g := &liveGroup{
		id: b.nextGID, n: n, memMB: memMB, b: b,
		cmds:  make([]chan epochCmd, n),
		acks:  make(chan error, n),
		enter: make(chan struct{}, n),
		fail:  make(chan error, n),
		stop:  make(chan struct{}),
	}
	for i := range g.cmds {
		g.cmds[i] = make(chan epochCmd, 1)
	}
	b.nextGID++
	b.groups = append(b.groups, g)
	b.mu.Unlock()

	g.done.Add(n)
	for i := 0; i < n; i++ {
		payload, _ := json.Marshal(workerHello{Group: g.id, Worker: i})
		go func() {
			defer g.done.Done()
			deadline := time.Now().Add(5 * time.Second)
			for {
				_, err := b.invoker.Invoke(name, payload)
				if errors.Is(err, lambda.ErrThrottled) && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond) // queue and retry, as bursts do
					continue
				}
				if err != nil {
					g.fail <- err
				}
				return
			}
		}()
	}

	spawnStart := b.now()
	timeout := time.After(b.cfg.SpawnTimeout)
	for entered := 0; entered < n; {
		select {
		case <-g.enter:
			entered++
		case err := <-g.fail:
			b.removeGroup(g)
			g.shutdown()
			return fmt.Errorf("livebackend: spawning group (n=%d mem=%dMB): %w", n, memMB, err)
		case <-timeout:
			b.removeGroup(g)
			g.shutdown()
			return fmt.Errorf("livebackend: group (n=%d mem=%dMB) not live after %s", n, memMB, b.cfg.SpawnTimeout)
		}
	}
	if b.obs.Enabled() {
		b.obs.Trace().SpanAt(spawnStart, b.now()-spawnStart, "live", "live", "group_spawn",
			obs.I("group", g.id), obs.I("n", n), obs.I("mem_mb", memMB))
		b.obs.Stats().Inc("live.group_spawns")
	}
	return nil
}

func (b *Backend) groupByID(id int) *liveGroup {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, g := range b.groups {
		if g.id == id {
			return g
		}
	}
	return nil
}

// findGroup returns the oldest admitted group matching (n, memMB) — the same
// FIFO identity the trainer uses when it releases a superseded group.
func (b *Backend) findGroup(n, memMB int) *liveGroup {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, g := range b.groups {
		if g.n == n && g.memMB == memMB {
			return g
		}
	}
	return nil
}

func (b *Backend) removeGroup(g *liveGroup) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, have := range b.groups {
		if have == g {
			b.groups = append(b.groups[:i], b.groups[i+1:]...)
			break
		}
	}
}

// releaseGroup tears down the oldest group matching (n, memMB), waiting for
// its workers to drain so their execution environments return to the warm
// pool before the caller proceeds.
func (b *Backend) releaseGroup(n, memMB int) {
	g := b.findGroup(n, memMB)
	if g == nil {
		return
	}
	b.removeGroup(g)
	var wire psnet.WireStats
	if g.ps != nil {
		wire = g.ps.WireStats()
	}
	rounds := g.shutdown()
	b.mu.Lock()
	b.psRounds += rounds
	b.mu.Unlock()
	if b.obs.Enabled() {
		b.obs.Trace().InstantAt(b.now(), "live", "live", "group_release",
			obs.I("group", g.id), obs.I("n", n), obs.I("mem_mb", memMB), obs.I("ps_rounds", rounds))
		st := b.obs.Stats()
		st.Inc("live.group_releases")
		st.Add("live.ps_bytes_in", float64(wire.BytesIn))
		st.Add("live.ps_bytes_out", float64(wire.BytesOut))
		b.observeStats()
	}
}

// shutdown stops the group's workers and its parameter server, returning the
// BSP rounds the server completed.
func (g *liveGroup) shutdown() int {
	g.stopped.Do(func() { close(g.stop) })
	g.done.Wait()
	rounds := 0
	if g.ps != nil {
		rounds = g.ps.Round()
		g.ps.Close()
	}
	return rounds
}

// RunEpoch implements platform.GroupRunner: one real synchronization barrier
// across the group currently serving the allocation (n, memMB), using the
// allocation's storage kind for the wire pattern.
func (b *Backend) RunEpoch(n, memMB int, kind platform.StorageKind) error {
	g := b.findGroup(n, memMB)
	if g == nil {
		return fmt.Errorf("livebackend: no live group for (n=%d mem=%dMB)", n, memMB)
	}
	b.ckptMu.Lock()
	model := append([]float64(nil), b.ckpt...)
	b.ckptMu.Unlock()
	if len(model) == 0 {
		model = []float64{float64(g.epoch)}
	}
	g.epoch++
	cmd := epochCmd{kind: kind, model: model, epoch: g.epoch}
	barrierStart := b.now()
	for i := 0; i < g.n; i++ {
		g.cmds[i] <- cmd
	}
	var firstErr error
	for i := 0; i < g.n; i++ {
		if err := <-g.acks; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	b.mu.Lock()
	b.barriers++
	b.mu.Unlock()
	if b.obs.Enabled() {
		dur := b.now() - barrierStart
		b.obs.Trace().SpanAt(barrierStart, dur, "live", "live", "epoch_barrier",
			obs.I("group", g.id), obs.I("n", n), obs.I("mem_mb", memMB),
			obs.S("storage", kind.String()), obs.I("epoch", g.epoch))
		b.obs.Stats().Observe("live.barrier_s", dur)
	}
	return firstErr
}

// workerHandler is the lambda handler for one live worker: it joins its
// group and serves epoch barriers until the group is released.
func (b *Backend) workerHandler(c lambda.Context, payload []byte) ([]byte, error) {
	var hello workerHello
	if err := json.Unmarshal(payload, &hello); err != nil {
		return nil, fmt.Errorf("livebackend: worker payload: %w", err)
	}
	g := b.groupByID(hello.Group)
	if g == nil {
		return nil, fmt.Errorf("livebackend: worker joined unknown group %d", hello.Group)
	}
	g.enter <- struct{}{}
	var psc *psnet.Client
	defer func() {
		if psc != nil {
			psc.Close()
		}
	}()
	for {
		select {
		case <-g.stop:
			return []byte("released"), nil
		case cmd := <-g.cmds[hello.Worker]:
			g.acks <- g.workerEpoch(hello.Worker, &psc, cmd)
		}
	}
}

// workerEpoch executes one worker's share of an epoch barrier.
func (g *liveGroup) workerEpoch(w int, psc **psnet.Client, cmd epochCmd) error {
	if cmd.kind == platform.VMPS {
		return g.paramServerEpoch(w, psc, cmd)
	}
	return g.objectStoreEpoch(w, cmd)
}

// paramServerEpoch runs the (2n-2) pattern: pull the model from the group's
// TCP parameter server, then push a gradient and block until the round's
// aggregated update is applied (the real BSP barrier).
func (g *liveGroup) paramServerEpoch(w int, psc **psnet.Client, cmd epochCmd) error {
	g.psOnce.Do(func() {
		srv, err := psnet.NewServer(g.n, 0.01)
		if err != nil {
			g.psErr = err
			return
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			g.psErr = err
			return
		}
		g.ps = srv
		g.psAddr = addr
	})
	if g.psErr != nil {
		return g.psErr
	}
	if *psc == nil {
		c, err := psnet.Dial(g.psAddr, w)
		if err != nil {
			return err
		}
		*psc = c
	}
	if err := (*psc).Init(cmd.model); err != nil {
		return err
	}
	model, round, err := (*psc).Pull()
	if err != nil {
		return err
	}
	// The statistics live in the job's loss engine; the wire carries
	// model-sized payloads and a zero gradient keeps the server's state
	// consistent while the aggregation and the round barrier run for real.
	_, err = (*psc).Push(round, make([]float64, len(model)))
	return err
}

// objectStoreEpoch runs the (3n-2) stateless pattern over HTTP: every worker
// uploads its gradient object, worker 0 collects all n, aggregates and
// publishes the model, and every worker re-pulls it.
func (g *liveGroup) objectStoreEpoch(w int, cmd epochCmd) error {
	client := g.b.client
	pfx := fmt.Sprintf("live/g%d/e%d", g.id, cmd.epoch)
	grad := make([]float64, len(cmd.model))
	if err := client.Put(fmt.Sprintf("%s/grad/%d", pfx, w), distml.EncodeVec(grad)); err != nil {
		return err
	}
	if w == 0 {
		sum := make([]float64, len(cmd.model))
		for j := 0; j < g.n; j++ {
			key := fmt.Sprintf("%s/grad/%d", pfx, j)
			vec, err := pollGet(client, key)
			if err != nil {
				return err
			}
			for i := range vec {
				if i < len(sum) {
					sum[i] += vec[i]
				}
			}
		}
		model := append([]float64(nil), cmd.model...)
		for i := range model {
			model[i] -= sum[i] / float64(g.n)
		}
		if err := client.Put(pfx+"/model", distml.EncodeVec(model)); err != nil {
			return err
		}
		for j := 0; j < g.n; j++ {
			client.Delete(fmt.Sprintf("%s/grad/%d", pfx, j))
		}
	}
	_, err := pollGet(client, pfx+"/model")
	return err
}

// pollGet polls the object store until key appears (workers poll for the
// aggregated model, the step the paper's request accounting includes).
func pollGet(client *objstore.Client, key string) ([]float64, error) {
	for attempt := 0; ; attempt++ {
		data, ok, err := client.Get(key)
		if err != nil {
			return nil, err
		}
		if ok {
			return distml.DecodeVec(data)
		}
		if attempt > 200000 {
			return nil, fmt.Errorf("livebackend: %s never appeared", key)
		}
		time.Sleep(50 * time.Microsecond)
	}
}
