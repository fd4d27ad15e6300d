package main

import (
	"slices"
	"time"
)

// metric names one reported number. The lists below are the benchmark's
// vocabulary: BENCHMARK.json carries the same names in the same order
// (TestBenchmarkJSONMatchesMetrics), and later issues refer to them.
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: see endToEnd
	// samples picks an end-to-end metric's measurements out of a result, and
	// value reduces them to the number reported.
	samples func(*result) []float64
	value   func([]float64) float64
}

// endToEnd is what a user of cebench feels, measured from outside with
// profiling and tracing off. Times are host seconds. fail_frac and
// model_err_pct are end-to-end too but have exact bounds and can be 0, so
// BENCHMARK.json cannot carry them: the first is the failed/attempted pair of
// the result line, the second is guarded by the golden digest and listed with
// the per-layer metrics.
//
// wall_s is the fastest of a run's untraced executions, not their median.
// cebench is deterministic: at one seed every execution does the same work,
// so what differs between them is the host. The reference host is a shared
// 2-vCPU VM whose neighbours slow it in bursts of ~0.1 s, densely for minutes
// on end; the median of a run's executions then follows the neighbours (over
// 1300 back-to-back executions it ranged over 30 % from one run's worth to the
// next, the fastest execution over 13 %), and the benchmark driver refused the
// median for exactly that. The fastest execution is the one the bursts
// missed; benchmark/README.md has the measurements. Peak RSS does not depend
// on the host's speed and set-up is reported the way the driver asks for it,
// so both stay medians.
//
// bound is the share of the parent's value by which a metric may worsen
// before it counts as a regression, and how far two sets of runs of the same
// code may differ (-selfcheck; setup_s also passes within one second). The
// issue proposed 10 % and 15 % for wall and RSS; they are wider because a
// bound that a rerun of the same code can cross gates nothing, and the host
// has been seen to run whole minutes 20 % slow.
var endToEnd = []metric{
	{"wall_s", "s", "lower", 0.25, func(r *result) []float64 { return r.wall }, fastest},
	{"peak_rss_mb", "MB", "lower", 0.20, func(r *result) []float64 { return r.rss }, median},
	{"setup_s", "s", "lower", 0.25, func(r *result) []float64 { return r.setup }, median},
}

// namedArtifacts get their own experiments.<id>.wall_s; the other paper
// artifacts are summed into experiments.rest.wall_s.
var namedArtifacts = []string{
	"fig15", "fig14", "fig9", "fig10", "fig12", "fig13", "fig21a", "abl-gap",
	"macro-day", "macro-chaos", "macro-trace", "macro-fleet",
}

// perLayer is every per-layer metric, none gated. A workload reports the
// ones that apply to it; the one-line result prints 0 for the others.
var perLayer = func() []metric {
	var ms []metric
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			ms = append(ms, metric{name: n, unit: unit, better: better})
		}
	}
	for _, l := range cpuLayers {
		add("s", "lower", l+".cpu_s")
	}
	add("s", "lower", "proc.cpu_s")
	add("cores", "higher", "proc.cores_busy")
	add("s", "lower", "proc.self_s", "proc.build_s")
	add("ratio", "lower", "proc.profile_overhead_frac")
	add("count", "lower", "runtime.gc_cycles")
	add("MB", "lower", "runtime.heap_peak_mb")
	// Exact counters parsed from stdout: simulated quantities.
	add("count", "lower", "sim.events")
	add("count", "higher", "experiments.invocations")
	add("ratio", "lower", "sim.events_per_invocation")
	add("count", "lower", "experiments.dropped", "faas.denials", "faas.retries", "faas.cold_starts",
		"scheduler.decisions", "trainer.restarts", "storage.ckpt_puts", "fault.events_compiled")
	add("count", "higher", "experiments.artifacts")
	add("%", "lower", "model_err_pct")
	// Simulated work per host second.
	add("1/s", "higher", "sim.events_per_s")
	add("ns", "lower", "sim.self_ns_per_event")
	add("1/s", "higher", "experiments.invocations_per_s", "scheduler.decisions_per_s")
	for _, id := range namedArtifacts {
		add("s", "lower", "experiments."+id+".wall_s")
	}
	add("s", "lower", "experiments.rest.wall_s")
	for _, p := range probes {
		switch {
		case p.rate:
			add("MB/s", "higher", p.name)
		case p.per == time.Nanosecond:
			add("ns", "lower", p.name)
		case p.per == time.Microsecond:
			add("us", "lower", p.name)
		default:
			add("ms", "lower", p.name)
		}
	}
	add("ratio", "lower", "obs.probe.trace_on_wall_ratio")
	add("MB", "lower", "obs.probe.trace_on_rss_mb")
	add("s", "lower", "sim.kernel_floor_s")
	return ms
}()

// stat summarises the samples of one end-to-end metric; Value is the number
// the metric reports.
type stat struct {
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
}

func summarize(m metric, samples []float64) stat {
	if len(samples) == 0 {
		return stat{}
	}
	return stat{Value: m.value(samples), N: len(samples), Min: slices.Min(samples), Median: median(samples), Max: slices.Max(samples)}
}

// fastest is the smallest sample, 0 when there is none.
func fastest(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return slices.Min(samples)
}

func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
