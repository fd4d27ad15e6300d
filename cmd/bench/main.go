// Command bench is the repository's one benchmark: it builds cebench, runs
// it as a child process on five fixed workloads, checks what it printed, and
// reports end-to-end wall time and peak RSS measured from outside, or — in a
// separate traced run — what each layer cost.
//
// Usage, from the repository root:
//
//	go run ./cmd/bench [-workload all|<name>] [-seed 2023] [-repeats 5]
//	                   [-seconds 10] [-layers] [-selfcheck] [-smoke]
//	                   [-out benchmark/out]
//
// Every metric is printed by name with its unit; -out receives result.json
// and, with -layers, trace.json. The exit status is non-zero if any output
// check failed. With a single workload the last line of stdout is the
// one-object summary BENCHMARK.json's driver reads (-trace 0|1 is that
// driver's spelling of -layers). benchmark/README.md is the manual.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() { os.Exit(runBench(os.Args[1:], os.Stdout, os.Stderr)) }

// runBench is the whole command; TestSmoke calls it in-process.
func runBench(args []string, stdout, stderr io.Writer) int {
	code, err := benchMain(args, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
	}
	return code
}

// benchMain returns the exit status: 0, 1 when a check failed or the
// benchmark could not run (with the reason), 2 for a bad command line.
func benchMain(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadFlag = fs.String("workload", "all", "workload to run: all, or one of "+workloadNames())
		seed         = fs.Uint64("seed", 2023, "workload seed, passed to cebench as -seed")
		repeats      = fs.Int("repeats", 0, "measured executions per workload (0 = 5, or 1 with -smoke)")
		seconds      = fs.Float64("seconds", 10, "keep repeating until this many seconds were measured (end-to-end runs only)")
		layers       = fs.Bool("layers", false, "traced run: per-layer metrics and trace.json in place of the end-to-end ones")
		trace        = fs.Int("trace", 0, "1 = -layers")
		selfcheck    = fs.Bool("selfcheck", false, "run two sets back to back and require them to agree within the bounds")
		smoke        = fs.Bool("smoke", false, "every workload at a few percent of its size, one repeat, checks on, timings not judged")
		outDir       = fs.String("out", "benchmark/out", "directory for result.json, trace.json and scratch files")
	)
	if err := fs.Parse(args); err != nil {
		return 2, nil // the flag set has printed it
	}
	if fs.NArg() > 0 {
		return 2, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	selected := workloads
	if *workloadFlag != "all" {
		w, err := workloadByName(*workloadFlag)
		if err != nil {
			return 2, fmt.Errorf("%v (have %s)", err, workloadNames())
		}
		selected = []*workload{w}
	}

	b := &bench{sc: fullScale, seed: *seed, sample: 10, repeats: 5, seconds: *seconds, setups: 3, full: true, log: newSpanLog()}
	b.layers = *layers || *trace == 1
	if b.layers {
		// A traced run needs the untraced repeats only as the reference for
		// proc.* and profile_overhead_frac, at the seed the counters and the
		// profiles are taken at.
		b.sample, b.setups, b.seconds = 1, 1, 0
	}
	if *smoke {
		b.sc, b.full = smokeScale, false
		b.sample, b.repeats, b.setups, b.seconds = 1, 1, 1, 0
	}
	if *repeats > 0 {
		b.repeats = *repeats
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return 1, err
	}
	tmp, err := os.MkdirTemp(*outDir, "run-")
	if err == nil {
		tmp, err = filepath.Abs(tmp)
	}
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(tmp)
	b.tmp, b.bin = tmp, filepath.Join(tmp, "cebench")

	rep := report{Host: hostInfo(), Seed: *seed, Repeats: b.repeats, Smoke: *smoke, Layers: b.layers}
	rep.Noisy = rep.Host.Load1 > 0.5*float64(rep.Host.NProc)
	fmt.Fprintf(stdout, "bench: %s, nproc=%d GOMAXPROCS=%d, %s, commit %s%s, load1 %.2f\n",
		rep.Host.CPU, rep.Host.NProc, rep.Host.GOMAXPROCS, rep.Host.Go, rep.Host.Commit, dirtyMark(rep.Host.Dirty), rep.Host.Load1)
	if rep.Noisy {
		fmt.Fprintf(stdout, "bench: noisy: 1-minute load average %.2f exceeds half of %d cores; timings are not trustworthy\n", rep.Host.Load1, rep.Host.NProc)
	}

	b.root = b.log.begin(0, "bench", "", 0)
	// Priming build, untimed: the timed builds that follow all start from
	// the same warm build cache.
	if _, err := b.buildCebench(); err != nil {
		return 1, err
	}
	if b.layers {
		batches := probeBatches
		if *smoke {
			batches = 1
		}
		if rep.Probes, err = b.runProbes(batches); err != nil {
			return 1, err
		}
	}

	sets := 1
	if *selfcheck {
		sets = 2
	}
	ok := true
	var last *result
	for s := 0; s < sets; s++ {
		if sets > 1 {
			fmt.Fprintf(stdout, "\nset %c\n", 'A'+s)
		}
		var set []workloadReport
		for _, w := range selected {
			r, err := b.run(w)
			if err != nil {
				return 1, fmt.Errorf("%s: %v", w.name, err)
			}
			if b.layers {
				r.layer = layerMetrics(r, rep.Probes)
			}
			wr := reportOf(r, b.argsFor(w, b.seed))
			printWorkload(stdout, r, &wr, b.seed, rep.Probes)
			ok = ok && r.failed == 0
			set, last = append(set, wr), r
		}
		rep.Sets = append(rep.Sets, set)
	}
	if b.layers {
		printProbes(stdout, rep.Probes)
	}
	if *selfcheck {
		rep.Selfcheck = compareSets(rep.Sets[0], rep.Sets[1])
		ok = printSelfcheck(stdout, rep.Selfcheck) && ok
	}
	b.log.end(b.root)

	if err := writeJSON(filepath.Join(*outDir, "result.json"), rep); err != nil {
		return 1, err
	}
	if b.layers {
		if err := b.log.write(filepath.Join(*outDir, "trace.json")); err != nil {
			return 1, err
		}
	}
	if len(selected) == 1 {
		fmt.Fprintln(stdout, resultLine(last, b.layers, rep.Probes))
	}
	if !ok {
		return 1, nil
	}
	return 0, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func dirtyMark(dirty bool) string {
	if dirty {
		return "+dirty"
	}
	return ""
}

// host is where the numbers were taken; a number without it is not
// comparable with anything.
type host struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	Load1      float64 `json:"load1"` // 1-minute load average at start
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			h.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	// A checkout without git (the benchmark driver's) stays "unknown".
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			h.Dirty = len(out) > 0
		}
	}
	return h
}

// report is result.json.
type report struct {
	Host      host               `json:"host"`
	Seed      uint64             `json:"seed"`
	Repeats   int                `json:"repeats"`
	Smoke     bool               `json:"smoke"`
	Layers    bool               `json:"layers"`
	Noisy     bool               `json:"noisy"`
	Sets      [][]workloadReport `json:"sets"`
	Probes    map[string]float64 `json:"probes,omitempty"`
	Selfcheck []comparison       `json:"selfcheck,omitempty"`
}

type workloadReport struct {
	Name        string             `json:"name"`
	Why         string             `json:"why"`
	Args        []string           `json:"cebench_args"`
	Digest      string             `json:"stdout_sha256"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Failures    []string           `json:"failures,omitempty"`
	FailFrac    float64            `json:"fail_frac"`
	ModelErrPct float64            `json:"model_err_pct,omitempty"`
	EndToEnd    map[string]stat    `json:"end_to_end"`
	Counters    map[string]float64 `json:"counters"`
	Layers      map[string]float64 `json:"layers,omitempty"`
}

func reportOf(r *result, args []string) workloadReport {
	return workloadReport{
		Name: r.w.name, Why: r.w.why, Args: args,
		Digest: r.digest, Attempted: r.attempted, Failed: r.failed, Failures: r.failures,
		FailFrac:    float64(r.failed) / float64(r.attempted),
		ModelErrPct: r.obs.modelErrPct,
		EndToEnd:    endToEndStats(r),
		Counters:    r.obs.counters,
		Layers:      r.layer,
	}
}

func endToEndStats(r *result) map[string]stat {
	stats := map[string]stat{}
	for _, m := range endToEnd {
		stats[m.name] = summarize(m, m.samples(r))
	}
	return stats
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printWorkload(out io.Writer, r *result, wr *workloadReport, seed uint64, probed map[string]float64) {
	fmt.Fprintf(out, "\n%s  seed %d  stdout sha256 %s\n", wr.Name, seed, wr.Digest)
	if r.layer == nil {
		for _, m := range endToEnd {
			s := wr.EndToEnd[m.name]
			fmt.Fprintf(out, "  %-14s %10.4f %-5s  min %.4f  median %.4f  max %.4f  n=%d\n", m.name, s.Value, m.unit, s.Min, s.Median, s.Max, s.N)
		}
	} else {
		s := wr.EndToEnd["wall_s"]
		fmt.Fprintf(out, "  reference wall %.4f s, fastest of %d untraced repeats (not an end-to-end result)\n", s.Value, s.N)
		for _, m := range perLayer {
			if v, ok := r.layer[m.name]; ok {
				fmt.Fprintf(out, "  %-34s %14.4f %s\n", m.name, v, m.unit)
			}
		}
		// The rungs are single-core costs: on trace-s8w2 two cores share them.
		if arrivals, ok := r.obs.tables[0].totalCell("arrivals"); ok && r.layer["proc.cores_busy"] < 1.25 {
			printLadder(out, r, arrivals, probed)
		}
	}
	fmt.Fprintf(out, "  %-14s %10.4f %-5s  %d failed of %d child executions\n", "fail_frac", wr.FailFrac, "ratio", wr.Failed, wr.Attempted)
	if wr.ModelErrPct > 0 {
		fmt.Fprintf(out, "  %-14s %10.4f %-5s  worst fig19/fig20 analytic-vs-simulated error (simulated quantities)\n", "model_err_pct", wr.ModelErrPct, "%")
	}
	for _, f := range wr.Failures {
		fmt.Fprintf(out, "  FAIL %s\n", f)
	}
}

func printProbes(out io.Writer, probed map[string]float64) {
	fmt.Fprintf(out, "\nprobes (per operation, fixed inputs; median of %d batches, 1 with -smoke)\n", probeBatches)
	for _, m := range perLayer {
		if v, ok := probed[m.name]; ok {
			fmt.Fprintf(out, "  %-34s %14.4f %s\n", m.name, v, m.unit)
		}
	}
}

// comparison is one row of -selfcheck: the same code measured twice.
type comparison struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	RelDiff  float64 `json:"rel_diff"`
	Bound    float64 `json:"bound"`
	OK       bool    `json:"ok"`
}

func compareSets(a, b []workloadReport) []comparison {
	var out []comparison
	for i := range a {
		for _, m := range endToEnd {
			x, y := a[i].EndToEnd[m.name].Value, b[i].EndToEnd[m.name].Value
			c := comparison{Workload: a[i].Name, Metric: m.name, A: x, B: y, RelDiff: math.Abs(y-x) / x, Bound: m.bound}
			c.OK = c.RelDiff <= c.Bound || (m.name == "setup_s" && math.Abs(y-x) <= 1)
			out = append(out, c)
		}
		exact := func(name string, x, y float64) {
			out = append(out, comparison{Workload: a[i].Name, Metric: name, A: x, B: y, RelDiff: math.Abs(y - x), OK: x == y})
		}
		exact("fail_frac", a[i].FailFrac, b[i].FailFrac)
		exact("model_err_pct", a[i].ModelErrPct, b[i].ModelErrPct)
		same := a[i].Digest == b[i].Digest && len(a[i].Counters) == len(b[i].Counters)
		for k, v := range a[i].Counters {
			same = same && b[i].Counters[k] == v
		}
		out = append(out, comparison{Workload: a[i].Name, Metric: "counters+digest", OK: same})
	}
	return out
}

func printSelfcheck(out io.Writer, cs []comparison) bool {
	ok := true
	fmt.Fprintf(out, "\nselfcheck: two sets of the same code\n  %-11s %-16s %12s %12s %9s %7s\n", "workload", "metric", "set A", "set B", "rel diff", "bound")
	for _, c := range cs {
		verdict := ""
		if !c.OK {
			verdict, ok = "  EXCEEDED", false
		}
		fmt.Fprintf(out, "  %-11s %-16s %12.4f %12.4f %8.2f%% %6.0f%%%s\n", c.Workload, c.Metric, c.A, c.B, 100*c.RelDiff, 100*c.Bound, verdict)
	}
	return ok
}

// resultLine is the one-object summary the benchmark driver reads: every
// end-to-end metric, or with tracing on every per-layer metric (0 where one
// does not apply to the workload).
func resultLine(r *result, layers bool, probed map[string]float64) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if layers {
		for _, m := range perLayer {
			v, ok := r.layer[m.name]
			if !ok {
				v = probed[m.name]
			}
			metrics[m.name] = value{v, m.unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = value{m.value(m.samples(r)), m.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}
