package main

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"repro/internal/cost"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/faas"
	"repro/internal/fit"
	"repro/internal/ml"
	"repro/internal/planner"
	"repro/internal/predictor"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/traffic"
	models "repro/internal/workload"
)

// Probes time calls into one layer's public functions from the outside, on
// fixed seeded inputs that do not depend on -seed. They are the per-layer
// rungs of the ladder: what a layer costs per operation when nothing else
// runs. benchmark/README.md lists every entry point used here as pinned
// surface; unexported identifiers and the functions ROADMAP plans to merge
// away (fit.Fit, faas.Invoke1, experiments.Set*) are deliberately not used.

const probeBatches = 5

// probe is one per-layer micro measurement. setup builds the fixture and
// returns the batch function; a batch returns how many operations it did.
// The reported value is the median over the timed batches of
// elapsed ÷ operations ÷ per, or of operations ÷ elapsed seconds ÷ 1e6 for a
// rate (operations are bytes, the value MB/s).
type probe struct {
	name  string
	per   time.Duration
	rate  bool
	setup func() (batch func() int, err error)
}

var probes = []probe{
	{name: "sim.probe.hold_d8k_ns", per: time.Nanosecond, setup: holdProbe(8192)},
	{name: "sim.probe.hold_d128_ns", per: time.Nanosecond, setup: holdProbe(128)},
	{name: "sim.probe.batch_ns", per: time.Nanosecond, setup: batchProbe},
	{name: "sim.probe.cancel_ns", per: time.Nanosecond, setup: cancelProbe},
	{name: "sim.probe.post_s8_ns", per: time.Nanosecond, setup: postProbe},
	{name: "traffic.probe.next_diurnal_ns", per: time.Nanosecond, setup: cursorProbe(traffic.Diurnal)},
	{name: "traffic.probe.next_bursty_ns", per: time.Nanosecond, setup: cursorProbe(traffic.Bursty)},
	{name: "traffic.probe.parse_mb_per_s", rate: true, setup: parseProbe},
	{name: "faas.probe.group_invoke_release_ns", per: time.Nanosecond, setup: faasProbe},
	{name: "fit.probe.fitter_warm_ns", per: time.Nanosecond, setup: fitterProbe(true)},
	{name: "fit.probe.fitter_cold_us", per: time.Microsecond, setup: fitterProbe(false)},
	{name: "scheduler.probe.decide_ns", per: time.Nanosecond, setup: decideProbe},
	{name: "cost.probe.pareto_ms", per: time.Millisecond, setup: paretoProbe},
	{name: "planner.probe.plan_min_jct_us", per: time.Microsecond, setup: planProbe},
	{name: "ml.probe.epoch_ms", per: time.Millisecond, setup: epochProbe},
	{name: "experiments.probe.render_ms", per: time.Millisecond, setup: renderProbe},
}

// runProbes measures every probe — one untimed batch, then `batches` timed
// ones, a span each — and the two child-process obs probes.
func (b *bench) runProbes(batches int) (map[string]float64, error) {
	log, parent := b.log, b.root
	out := map[string]float64{}
	for _, p := range probes {
		batch, err := p.setup()
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.name, err)
		}
		batch()
		samples := make([]float64, batches)
		for i := range samples {
			sp := log.begin(parent, "probe/"+p.name, "", i)
			start := time.Now()
			ops := batch()
			elapsed := time.Since(start)
			log.end(sp)
			if p.rate {
				samples[i] = float64(ops) / elapsed.Seconds() / 1e6
			} else {
				samples[i] = float64(elapsed) / float64(ops) / float64(p.per)
			}
		}
		out[p.name] = median(samples)
	}
	return out, b.obsProbe(out)
}

// holdProbe is the classic hold model at a steady queue depth: every fired
// event schedules one successor a random increment ahead, so each operation
// is one pop plus one SchedulePriority against `depth` pending events.
func holdProbe(depth int) func() (func() int, error) {
	return func() (func() int, error) {
		s := sim.New(1)
		rng := sim.NewRand(42)
		inc := make([]sim.Time, 4096)
		for i := range inc {
			inc[i] = sim.Time(2 * rng.Float64()) // mean 1 simulated second
		}
		n := 0
		var step func()
		step = func() {
			n++
			s.SchedulePriority(s.Now()+inc[n%len(inc)], 0, step)
		}
		for i := 0; i < depth; i++ {
			s.SchedulePriority(inc[i%len(inc)], 0, step)
		}
		// depth events fire per simulated second; a batch is ~200k events.
		window := sim.Time(200_000 / depth)
		limit := sim.Time(0)
		return func() int {
			before := s.EventsFired()
			limit += window
			s.RunUntil(limit)
			return int(s.EventsFired() - before)
		}, nil
	}
}

// batchProbe injects 256-event bursts with ScheduleBatch onto a standing
// backlog of 256 and drains both; one operation is one event. It is the
// shape of the legacy BenchmarkScheduleBatch.
func batchProbe() (func() int, error) {
	const burst, rounds = 256, 400
	s := sim.New(1)
	sh := s.Main()
	nop := func() {}
	batch := make([]sim.BatchEvent, burst)
	return func() int {
		for r := 0; r < rounds; r++ {
			base := sh.Now() + 1
			for i := 0; i < burst; i++ {
				sh.Schedule(base+sim.Time(2+i), nop)
			}
			for i := range batch {
				batch[i] = sim.BatchEvent{At: base + sim.Time(float64(i)/burst), Fn: nop}
			}
			sh.ScheduleBatch(batch)
			s.Run()
		}
		return rounds * 2 * burst
	}, nil
}

// cancelProbe is the warm-sandbox expiry pattern: each step schedules an
// event and cancels it before it fires.
func cancelProbe() (func() int, error) {
	const steps = 400_000
	s := sim.New(1)
	nop := func() {}
	left := 0
	var step func()
	step = func() {
		s.ScheduleAfter(2, nop).Cancel()
		if left--; left > 0 {
			s.ScheduleAfter(1, step)
		}
	}
	return func() int {
		left = steps
		s.ScheduleAfter(1, step)
		s.Run()
		return steps
	}, nil
}

// postProbe passes one token round an 8-shard ring through Shard.Post, one
// lookahead ahead per hop, on a single worker: outbox, window barrier and
// flush per operation.
func postProbe() (func() int, error) {
	const shards, hops = 8, 300_000
	s := sim.New(1)
	s.EnsureShards(shards)
	s.SetLookahead(1)
	s.SetWorkers(1)
	left := 0
	hop := make([]func(), shards)
	for i := range hop {
		from, to := s.Shard(i), s.Shard((i+1)%shards)
		next := (i + 1) % shards
		hop[i] = func() {
			if left--; left > 0 {
				from.Post(to, from.Now()+1, 0, hop[next])
			}
		}
	}
	return func() int {
		left = hops
		s.Shard(0).ScheduleAfter(1, hop[0])
		s.Run()
		return hops
	}, nil
}

// cursorProbe draws arrivals from one tenant's lazy cursor at macro-trace's
// per-tenant rate.
func cursorProbe(kind traffic.Kind) func() (func() int, error) {
	return func() (func() int, error) {
		const draws = 300_000
		cfg := traffic.Config{Kind: kind, Rate: 1.6, Horizon: 1e15}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		c := cfg.Cursor(sim.NewRand(42))
		return func() int {
			for i := 0; i < draws; i++ {
				c.Next()
			}
			return draws
		}, nil
	}
}

// parseProbe parses a generated Azure-style per-minute-count file: 128 rows
// of one simulated day, mostly small counts and zeros.
func parseProbe() (func() int, error) {
	const rows, minutes, passes = 128, 1440, 8
	rng := sim.NewRand(42)
	var file bytes.Buffer
	for r := 0; r < rows; r++ {
		for m := 0; m < minutes; m++ {
			if m > 0 {
				file.WriteByte(',')
			}
			v := rng.Intn(23)
			if v > 9 {
				v = 0
			}
			file.WriteString(strconv.Itoa(v))
		}
		file.WriteByte('\n')
	}
	in := file.Bytes()
	if _, err := traffic.ParseTrace(bytes.NewReader(in)); err != nil {
		return nil, err
	}
	return func() int {
		for i := 0; i < passes; i++ {
			// The same bytes parsed cleanly above.
			_, _ = traffic.ParseTrace(bytes.NewReader(in))
		}
		return passes * len(in)
	}, nil
}

// faasProbe admits and releases a warm group of 8 once per simulated second,
// with the default warm pool and its expiry events behind it.
func faasProbe() (func() int, error) {
	const groups = 8_000
	s := sim.New(1)
	p := faas.NewDefault(s)
	if _, err := p.InvokeGroup(8, 1024); err != nil {
		return nil, err
	}
	p.ReleaseGroup(8, 1024, 0.5)
	left := 0
	var step func()
	step = func() {
		// Admission was checked above: 8 is far under the default cap.
		_, _ = p.InvokeGroup(8, 1024)
		p.ReleaseGroup(8, 1024, 0.5)
		if left--; left > 0 {
			s.ScheduleAfter(1, step)
		}
	}
	return func() int {
		left = groups
		s.ScheduleAfter(1, step)
		s.Run()
		return groups
	}, nil
}

// lossCurve is the fixed loss feed of the fit and scheduler probes: an
// inverse-linear descent to a 0.40 floor with a ±2 % alternation, so every
// refit has a little drift to chase.
func lossCurve(epoch int) float64 {
	l := 1/(0.01*float64(epoch)+1) + 0.40
	if epoch%2 == 0 {
		return l * 1.02
	}
	return l * 0.98
}

// fitterProbe fits a 32-point window of lossCurve with the reusable Fitter:
// warm slides the window one epoch per call from the previous optimum, cold
// refits the same window from the data guess.
func fitterProbe(warm bool) func() (func() int, error) {
	return func() (func() int, error) {
		const window, span = 32, 128
		xs, ys := make([]float64, window+span), make([]float64, window+span)
		for i := range xs {
			xs[i], ys[i] = float64(i+1), lossCurve(i+1)
		}
		f, err := fit.NewFitter(fit.InverseLinear{})
		if err != nil {
			return nil, err
		}
		f.SetWarmStart(warm)
		if _, err := f.Fit(xs[:window], ys[:window], fit.Options{}); err != nil {
			return nil, err
		}
		fits := 500
		if warm {
			fits = 800
		}
		return func() int {
			for i := 0; i < fits; i++ {
				lo := 0
				if warm {
					lo = (i + 1) % span
				}
				// Same curve as the checked fit above.
				_, _ = f.Fit(xs[lo:lo+window], ys[lo:lo+window], fit.Options{})
			}
			return fits
		}, nil
	}
}

// decideProbe runs Algorithm 2's per-epoch decision under the fleet tuning:
// New → Initial → Controller() fed lossCurve, a tiny delta so every epoch
// takes the fit → predict → select path, a budget large enough never to stop.
func decideProbe() (func() int, error) {
	const decisions = 20_000
	model := models.MobileNet()
	m := cost.NewModel(model)
	s := scheduler.New(scheduler.Config{
		Model:        m,
		Frontier:     m.ParetoFrontier(cost.DefaultGrid()),
		Budget:       1e12,
		TargetLoss:   0.42,
		Delta:        1e-9,
		OnlineTuning: &predictor.Tuning{FixedWindow: 32, WarmStart: true, RefitBudget: 10},
		Offline:      predictor.NewOffline(model),
		OfflineSeed:  42,
	})
	s.Initial()
	ctrl := s.Controller()
	epoch := 0
	return func() int {
		for i := 0; i < decisions; i++ {
			epoch++
			e := 1 + epoch%4096
			ctrl(e, lossCurve(e), float64(epoch)*10, float64(epoch)*1e-6)
		}
		return decisions
	}, nil
}

// paretoProbe builds a model's grid table and Pareto frontier from nothing
// (the table is interned per Model, so each operation makes a new one).
func paretoProbe() (func() int, error) {
	const builds = 100
	if cost.NewModel(models.MobileNet()).ParetoFrontier(cost.DefaultGrid()).Len() == 0 {
		return nil, fmt.Errorf("empty Pareto frontier")
	}
	return func() int {
		for i := 0; i < builds; i++ {
			cost.NewModel(models.MobileNet()).ParetoFrontier(cost.DefaultGrid())
		}
		return builds
	}, nil
}

// planProbe is Algorithm 1 on a 256-trial SHA bracket at 1.3x the cheapest
// static plan's cost.
func planProbe() (func() int, error) {
	const plans = 15
	m := cost.NewModel(models.MobileNet())
	pl, err := planner.New(m, planner.SHAStages(256, 2, 2), m.ParetoSet(cost.DefaultGrid()))
	if err != nil {
		return nil, err
	}
	budget := pl.OptimalStatic(0, 1e15).Cost * 1.3
	if !pl.PlanMinJCT(budget).Feasible {
		return nil, fmt.Errorf("PlanMinJCT infeasible at budget %g", budget)
	}
	return func() int {
		for i := 0; i < plans; i++ {
			pl.PlanMinJCT(budget)
		}
		return plans
	}, nil
}

// epochProbe is one BSP epoch of real SGD at the SHA-trial shape (1500 rows
// of 256 features on 8 workers), the shape of the legacy BenchmarkRunEpoch.
func epochProbe() (func() int, error) {
	const epochs = 40
	data := dataset.GenerateBinary(sim.NewRand(1), dataset.GenConfig{Samples: 1500, Features: 256, NoiseFlip: 0.1})
	tr, err := ml.NewTrainer(data, ml.Config{
		Objective: ml.Logistic{L2: 1e-4}, Workers: 8, BatchPerWkr: 37, LearningRate: 0.1, Seed: 1,
	})
	if err != nil {
		return nil, err
	}
	return func() int {
		for i := 0; i < epochs; i++ {
			tr.RunEpoch()
		}
		return epochs
	}, nil
}

// renderIDs are paper artifacts that cost a few milliseconds to produce.
var renderIDs = []string{
	"tab1", "tab2", "tab4", "fig2", "fig4", "fig7", "fig11", "fig17", "fig19", "fig19x",
	"fig20", "fig21b", "fig21c", "abl-bohb", "abl-faults", "abl-hyperband", "fault-restart",
}

// rendered keeps renderProbe's result alive so the calls are not removed.
var rendered int

// renderProbe renders paper tables as text; one operation is all of them.
func renderProbe() (func() int, error) {
	const passes = 150
	tables := make([]*experiments.Table, len(renderIDs))
	for i, id := range renderIDs {
		t, err := experiments.Run(id, 2023)
		if err != nil {
			return nil, err
		}
		tables[i] = t
	}
	return func() int {
		for i := 0; i < passes; i++ {
			for _, t := range tables {
				rendered += len(t.String())
			}
		}
		return passes
	}, nil
}

// obsProbe runs the trace-s1 population at a short horizon with the
// deterministic tracer off and on (-trace-out, -metrics-out) and reports what
// tracing costs: the wall ratio and the traced run's peak RSS.
func (b *bench) obsProbe(out map[string]float64) error {
	sc := b.sc
	sc.trafficHorizon = sc.obsHorizon
	off := append([]string{"-seed", "2023"}, traceArgs(sc, 1, 1)...)
	on := append([]string{"-seed", "2023", "-trace-out", "obs.jsonl", "-metrics-out", "obs.json"}, traceArgs(sc, 1, 1)...)
	var offWall, onWall, onRSS []float64
	for i := 0; i < 3; i++ {
		sp := b.log.begin(b.root, "probe/obs.probe.trace_on_wall_ratio", "", i)
		eOff, eOn := b.exec(off), b.exec(on)
		b.log.end(sp)
		for _, e := range []*execution{eOff, eOn} {
			if e.exitErr != nil {
				return fmt.Errorf("obs probe: %v\n%s", e.exitErr, e.stderr)
			}
		}
		if !bytes.Equal(eOff.stdout, eOn.stdout) {
			return fmt.Errorf("obs probe: stdout differs with tracing on")
		}
		offWall, onWall, onRSS = append(offWall, eOff.wallS), append(onWall, eOn.wallS), append(onRSS, eOn.peakRSSMB)
	}
	out["obs.probe.trace_on_wall_ratio"] = fastest(onWall) / fastest(offWall)
	out["obs.probe.trace_on_rss_mb"] = median(onRSS)
	return nil
}
