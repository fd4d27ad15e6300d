package main

import (
	"fmt"
	"strconv"
)

// scale is the frozen size of every workload. full is what BENCHMARK.json
// records; smoke is for -smoke and TestSmoke. Sizes are a sixteenth of the
// ones the benchmark issue measured (2.5–4 s per repeat): one execution of a
// macro workload takes about a fifth of a second on the 2-core reference
// host, so a run measures some sixty of them and its fastest one is
// undisturbed even while the shared host is busy (see wall_s in metrics.go).
// They are cut where the simulated regime survives the cut: macro-day and
// macro-chaos spread a tenant's arrivals over one simulated day, so fewer
// arrivals per tenant would be a lighter load with hardly a drop or a retry,
// and fewer tenants are the same load on a smaller account; macro-trace
// halves both tenants and horizon, which keeps the heap within one level of
// its depth and the start-up transient a small part of the run. `paper` has
// no size flag and keeps its 3.5 s.
type scale struct {
	trafficTenants int
	trafficRate    float64
	trafficHorizon int // simulated seconds
	macroTenants   int
	macroPerTenant int
	chaosTenants   int
	chaosPerTenant int
	fleetTenants   int
	obsHorizon     int      // trace-s1 population, tracing on vs off
	paperIDs       []string // listed explicitly so a new artifact cannot change the digest
}

var fullScale = scale{
	trafficTenants: 64, trafficRate: 1.6, trafficHorizon: 900,
	macroTenants: 16, macroPerTenant: 7500,
	chaosTenants: 16, chaosPerTenant: 5000,
	fleetTenants: 1500,
	obsHorizon:   450,
	paperIDs: []string{
		"abl-asp", "abl-bohb", "abl-cluster", "abl-faults", "abl-gap", "abl-hyperband",
		"abl-pocket", "abl-workflow", "fault-restart", "fig10", "fig11", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig19x", "fig2", "fig20",
		"fig21a", "fig21b", "fig21c", "fig3", "fig4", "fig7", "fig9", "tab1", "tab2", "tab4",
	},
}

// smokeScale drops the two artifacts that are 85 % of `paper` (fig14, fig15:
// real SGD) and shrinks every macro population.
var smokeScale = scale{
	trafficTenants: 16, trafficRate: 1.6, trafficHorizon: 120,
	macroTenants: 8, macroPerTenant: 300,
	chaosTenants: 8, chaosPerTenant: 200,
	fleetTenants: 60,
	obsHorizon:   60,
	paperIDs: []string{
		"abl-asp", "abl-bohb", "abl-cluster", "abl-faults", "abl-gap", "abl-hyperband",
		"abl-pocket", "abl-workflow", "fault-restart", "fig10", "fig11", "fig12", "fig13",
		"fig16", "fig17", "fig18", "fig19", "fig19x", "fig2", "fig20",
		"fig21a", "fig21b", "fig21c", "fig3", "fig4", "fig7", "fig9", "tab1", "tab2", "tab4",
	},
}

// workload is one fixed cebench invocation. The seed is the only input that
// varies between runs; cebench receives it as -seed and nothing else.
type workload struct {
	name string
	why  string
	// args is the cebench command line without -seed.
	args func(sc scale) []string
	// ids are the artifacts the invocation must print, in order.
	ids func(sc scale) []string
	// sameAs names a workload whose stdout must be byte-identical; one
	// untimed verification execution of it runs during set-up.
	sameAs string
}

func traceArgs(sc scale, shards, workers int) []string {
	return []string{
		"-shards", strconv.Itoa(shards), "-sim-workers", strconv.Itoa(workers),
		"-traffic-kind", "diurnal",
		"-traffic-tenants", strconv.Itoa(sc.trafficTenants),
		"-traffic-rate", strconv.FormatFloat(sc.trafficRate, 'g', -1, 64),
		"-traffic-horizon", strconv.Itoa(sc.trafficHorizon),
		"macro-trace",
	}
}

func fixedIDs(ids ...string) func(scale) []string {
	return func(scale) []string { return ids }
}

// workloads is the benchmark's frozen workload list. The "why" strings are
// the one-line rationales BENCHMARK.json carries; benchmark/README.md has
// the long form.
var workloads = []*workload{
	{
		name: "paper",
		why:  "32 paper artifacts at -parallel 1: ml/dataset/trainer do the work (real SGD in fig15), the kernel almost none; the bypass workload for kernel changes",
		args: func(sc scale) []string { return append([]string{"-parallel", "1"}, sc.paperIDs...) },
		ids:  func(sc scale) []string { return sc.paperIDs },
	},
	{
		name: "trace-s1",
		why:  "macro-trace, 64 diurnal tenants x 1.6/s x 900 s, 1 shard: one deep event heap, faas admission under cap pressure, traffic cursors; where queue work must show",
		args: func(sc scale) []string { return traceArgs(sc, 1, 1) },
		ids:  fixedIDs("macro-trace"),
	},
	{
		name:   "trace-s8w2",
		why:    "same population on 8 shards and 2 workers: small heaps, Post mailboxes, window barriers, the parallel executor; stdout must equal trace-s1",
		args:   func(sc scale) []string { return traceArgs(sc, 8, 2) },
		ids:    fixedIDs("macro-trace"),
		sameAs: "trace-s1",
	},
	{
		name: "day-chaos",
		why:  "macro-day 16 x 7500 + macro-chaos 16 x 5000 arrivals: per-tenant caps, retry/shed, checkpoints, fault windows; the allocation- and fmt-sensitive workload",
		args: func(sc scale) []string {
			return []string{
				"-parallel", "1", "-shards", "1", "-sim-workers", "1",
				"-macro-tenants", strconv.Itoa(sc.macroTenants), "-macro-per-tenant", strconv.Itoa(sc.macroPerTenant),
				"-chaos-tenants", strconv.Itoa(sc.chaosTenants), "-chaos-per-tenant", strconv.Itoa(sc.chaosPerTenant),
				"macro-day", "macro-chaos",
			}
		},
		ids: fixedIDs("macro-day", "macro-chaos"),
	},
	{
		name: "fleet",
		why:  "macro-fleet, 1500 closed-loop Algorithm-2 controllers on one account: fit/scheduler/cost do the work, most per-controller state; bypasses traffic and ml",
		args: func(sc scale) []string {
			return []string{
				"-parallel", "1", "-shards", "1", "-sim-workers", "1",
				"-fleet-tenants", strconv.Itoa(sc.fleetTenants), "macro-fleet",
			}
		},
		ids: fixedIDs("macro-fleet"),
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
