// Command cebench regenerates the paper's evaluation artifacts on the
// simulated substrate.
//
// Usage:
//
//	cebench [-seed N] [-parallel P] <experiment-id>... | all | list
//
// Experiment ids follow the paper's numbering (fig9, tab2, ...) plus the
// ablations and macro scenarios; `cebench list` prints them all.
//
// Artifacts run on a bounded worker pool (-parallel, default GOMAXPROCS)
// and print in request order; every experiment derives all randomness from
// -seed, so the tables on stdout are byte-identical at any parallelism.
// Wall-clock diagnostics (per-artifact and total) go to stderr in every
// format, keeping stdout deterministic.
//
// Profiling hooks (-cpuprofile, -memprofile, -trace) write pprof/trace
// artifacts covering the experiment run, for `go tool pprof` and
// `go tool trace`; see EXPERIMENTS.md "How to profile cebench".
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/traffic"
)

func main() {
	// run carries the exit code out so deferred profile/trace writers run
	// before the process exits.
	os.Exit(run())
}

func run() int {
	seed := flag.Uint64("seed", 2023, "deterministic experiment seed")
	format := flag.String("format", "text", "output format: text | json | csv | html")
	parallel := flag.Int("parallel", 0, "worker pool size across and within artifacts (0 = GOMAXPROCS, 1 = fully serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the run, post-GC) to this file")
	tracefile := flag.String("trace", "", "write a runtime execution trace of the experiment run to this file")
	// Deterministic observability: events are stamped with each cell's
	// simulated clock and scopes export in sorted order, so the files are
	// byte-identical at any -parallel level. Stdout is unaffected.
	traceOut := flag.String("trace-out", "", "write the experiments' event trace to this file (.jsonl = JSON lines, else Chrome trace-event JSON for Perfetto)")
	metricsOut := flag.String("metrics-out", "", "write the experiments' metrics snapshot to this JSON file")
	// Sharded-kernel knobs: shards/sim-workers reconfigure the DES kernel
	// inside the sharded scenarios (macro-day, macro-chaos, macro-fleet,
	// macro-trace); tables and trace exports are byte-identical at every
	// setting, only wall-clock moves.
	shards := flag.Int("shards", 0, "kernel shards for sharded scenarios (0 = scenario default)")
	simWorkers := flag.Int("sim-workers", 0, "concurrent shards per conservative window (0 = scenario default)")
	macroTenants := flag.Int("macro-tenants", 0, "macro-day tenant count (0 = default 32)")
	macroPerTenant := flag.Int("macro-per-tenant", 0, "macro-day invocations per tenant (0 = default 1500)")
	chaosTenants := flag.Int("chaos-tenants", 0, "macro-chaos tenant count (0 = default 24)")
	chaosPerTenant := flag.Int("chaos-per-tenant", 0, "macro-chaos invocations per tenant (0 = default 1000)")
	fleetTenants := flag.Int("fleet-tenants", 0, "macro-fleet concurrent controller count (0 = default 48)")
	// Traffic-engine knobs (macro-trace): arrival process, population and
	// horizon; -trace-file installs an Azure-style per-minute-count file for
	// -traffic-kind trace (rows replayed round-robin across tenants).
	trafficKind := flag.String("traffic-kind", "", "macro-trace arrival process: poisson|bursty|diurnal|trace (empty = diurnal)")
	trafficTenants := flag.Int("traffic-tenants", 0, "macro-trace tenant count (0 = default 24)")
	trafficRate := flag.Float64("traffic-rate", 0, "macro-trace mean arrivals/sec per tenant (0 = default 0.5)")
	trafficHorizon := flag.Float64("traffic-horizon", 0, "macro-trace horizon in seconds (0 = default 1800)")
	traceFile := flag.String("trace-file", "", "per-minute-count trace file for -traffic-kind trace")
	rusage := flag.Bool("rusage", false, "report peak RSS to stderr after the run (VmHWM on Linux, getrusage elsewhere)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cebench [-seed N] [-format text|json|csv|html] [-parallel P] <experiment-id>... | all | list\n\nexperiments:\n")
		for _, id := range experiments.IDs() {
			fmt.Fprintf(os.Stderr, "  %s\n", id)
		}
	}
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		return 2
	}
	if args[0] == "list" {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return 0
	}
	switch *format {
	case "text", "json", "csv", "html":
	default:
		fmt.Fprintf(os.Stderr, "cebench: unknown -format %q (want text, json, csv or html)\n", *format)
		return 2
	}
	ids := args
	all := args[0] == "all"
	if all {
		if len(args) > 1 {
			fmt.Fprintf(os.Stderr, "cebench: \"all\" takes no further ids (got %q)\n", args[1:])
			return 2
		}
		ids = experiments.IDs()
	}

	cfg := experiments.Config{
		Parallel: *parallel, Shards: *shards, Workers: *simWorkers,
		MacroTenants: *macroTenants, MacroPerTenant: *macroPerTenant,
		ChaosTenants: *chaosTenants, ChaosPerTenant: *chaosPerTenant,
		FleetTenants:   *fleetTenants,
		TrafficTenants: *trafficTenants, TrafficRate: *trafficRate, TrafficHorizon: *trafficHorizon,
		TrafficKind: *trafficKind,
	}
	if *traceFile != "" && *trafficKind != traffic.TraceReplay.String() {
		// Config.Validate accepts trace rows beside any kind; from the
		// command line they would be silently ignored.
		fmt.Fprintf(os.Stderr, "cebench: -trace-file needs -traffic-kind trace (got %q)\n", *trafficKind)
		return 2
	}
	if *traceFile != "" {
		// File I/O stays out here: internal/traffic is a deterministic
		// package (no os imports); it parses from memory.
		data, err := os.ReadFile(*traceFile)
		if err == nil {
			cfg.Trace, err = traffic.ParseTrace(bytes.NewReader(data))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "cebench: trace-file: %v\n", err)
			return 1
		}
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "cebench: %v\n", err)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cebench: cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cebench: cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *tracefile != "" {
		f, err := os.Create(*tracefile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cebench: trace: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fmt.Fprintf(os.Stderr, "cebench: trace: %v\n", err)
			return 1
		}
		defer trace.Stop()
	}

	// The export files are created before the run, so a bad path fails now
	// and not after the last artifact.
	traceF, traceErr := createExport(*traceOut)
	metricsF, metricsErr := createExport(*metricsOut)
	if err := cmp.Or(traceErr, metricsErr); err != nil {
		fmt.Fprintf(os.Stderr, "cebench: %v\n", err)
		return 1
	}
	if traceF != nil || metricsF != nil {
		cfg.Collector = obs.NewCollector()
	}

	start := time.Now()
	outcomes := experiments.RunAll(ids, *seed, cfg)
	total := time.Since(start)

	if err := exportCollector(cfg.Collector, traceF, metricsF); err != nil {
		fmt.Fprintf(os.Stderr, "cebench: %v\n", err)
		return 1
	}

	if *memprofile != "" {
		// Stop the CPU-facing instrumentation windows at the run boundary so
		// the heap profile reflects steady state after the experiments.
		runtime.GC()
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cebench: memprofile: %v\n", err)
			return 1
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cebench: memprofile: %v\n", err)
			f.Close()
			return 1
		}
		f.Close()
	}

	exit := 0
	var collected []*experiments.Table
	for _, o := range outcomes {
		if o.Err != nil {
			fmt.Fprintf(os.Stderr, "cebench: %s: %v\n", o.ID, o.Err)
			exit = 1
			continue
		}
		fmt.Fprintf(os.Stderr, "cebench: %s in %s\n", o.ID, o.Elapsed.Round(time.Millisecond))
		switch *format {
		case "json", "html":
			collected = append(collected, o.Table)
		case "csv":
			fmt.Print(o.Table.CSV())
			fmt.Println()
		default:
			fmt.Print(o.Table.String())
			fmt.Println()
		}
	}
	switch {
	case *format == "json" && len(collected) > 0:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(collected); err != nil {
			fmt.Fprintf(os.Stderr, "cebench: encoding: %v\n", err)
			exit = 1
		}
	case *format == "html" && len(collected) > 0:
		fmt.Print(experiments.HTMLReport(collected))
	}
	if all {
		fmt.Fprintf(os.Stderr, "cebench: %d artifacts in %s (parallel=%d)\n",
			len(ids), total.Round(time.Millisecond), cmp.Or(*parallel, runtime.GOMAXPROCS(0)))
	}
	if *rusage {
		if hwm, err := peakRSSKB(); err == nil {
			fmt.Fprintf(os.Stderr, "cebench: peak RSS %d kB (cores=%d)\n", hwm, runtime.NumCPU())
		} else {
			fmt.Fprintf(os.Stderr, "cebench: rusage unavailable: %v\n", err)
		}
	}
	return exit
}

// createExport creates the export file at path; "" means not requested.
func createExport(path string) (*os.File, error) {
	if path == "" {
		return nil, nil
	}
	return os.Create(path)
}

// exportCollector writes the merged per-cell trace and/or metrics into the
// files opened for them (nil = not requested).
func exportCollector(c *obs.Collector, traceF, metricsF *os.File) error {
	scopes := c.Scopes()
	if traceF != nil {
		if err := obs.WriteTrace(traceF, traceF.Name(), scopes); err != nil {
			return err
		}
		if err := traceF.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cebench: wrote event trace (%d scopes) to %s\n", len(scopes), traceF.Name())
	}
	if metricsF != nil {
		if err := obs.WriteMetricsJSON(metricsF, scopes); err != nil {
			return err
		}
		if err := metricsF.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cebench: wrote metrics (%d scopes) to %s\n", len(scopes), metricsF.Name())
	}
	return nil
}
