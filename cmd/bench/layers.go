package main

import (
	"fmt"
	"io"
	"math"
	"os/exec"
	"path/filepath"
	"slices"
)

// profileSeconds is how much execution a workload's CPU profile covers: at
// the profiler's 100 Hz a row is then good to ±0.01 s in 3 s. A quarter-second
// workload is profiled a dozen times over and the profiles are merged.
const profileSeconds = 3.0

// profile is the traced part of a workload's run: the same invocation again
// with cebench's -cpuprofile, as often as covers profileSeconds, the first
// time also with GODEBUG=gctrace=1. `go tool pprof -top` merges the profiles
// into CPU seconds per package, reported per execution. Each execution is
// checked like any other; no end-to-end number comes from them, and
// proc.profile_overhead_frac states what profiling cost.
func (b *bench) profile(r *result, w *workload, args []string) error {
	executions := 1
	if b.full {
		executions = min(int(math.Ceil(profileSeconds/fastest(r.wall))), 20)
	}
	n := float64(executions)
	pprofArgs := []string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", b.bin}
	var walls []float64
	var gctrace []byte
	for i := 0; i < executions; i++ {
		prof := filepath.Join(b.tmp, fmt.Sprintf("cpu%d.prof", i))
		env := []string{}
		if i == 0 {
			env = append(env, "GODEBUG=gctrace=1")
		}
		sp := b.log.begin(b.root, "profile/"+w.name, w.name, i)
		e := b.exec(append([]string{"-cpuprofile", prof}, args...), env...)
		b.log.end(sp)
		b.check(r, w, b.seed, e)
		if i == 0 {
			gctrace = e.stderr
		}
		walls = append(walls, e.wallS)
		pprofArgs = append(pprofArgs, prof)
	}

	top, err := exec.Command("go", pprofArgs...).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof -top: %v", err)
	}
	byLayer, total, err := parsePprofTop(top)
	if err != nil {
		return err
	}
	attributed := 0.0
	m := map[string]float64{}
	for _, l := range cpuLayers {
		m[l+".cpu_s"] = byLayer[l] / n
		attributed += byLayer[l]
	}
	if math.Abs(attributed-total) > 0.01*total {
		return fmt.Errorf("%s: per-package CPU sums to %.3fs, profile total is %.3fs", w.name, attributed, total)
	}
	cycles, heapPeakMB := parseGCTrace(gctrace)
	m["runtime.gc_cycles"], m["runtime.heap_peak_mb"] = float64(cycles), heapPeakMB
	m["proc.profile_overhead_frac"] = fastest(walls)/fastest(r.wall) - 1
	r.layer = m
	return nil
}

// layerMetrics completes a profiled result's per-layer map: process figures
// from the untraced repeats, the exact counters, rates, per-artifact wall,
// and the kernel floor from the probes.
func layerMetrics(r *result, probed map[string]float64) map[string]float64 {
	m := r.layer
	wall := fastest(r.wall) // wall_s as the end-to-end run defines it
	busy := make([]float64, len(r.wall))
	for i := range busy {
		busy[i] = r.cpu[i] / r.wall[i]
	}
	m["proc.cpu_s"] = median(r.cpu)
	m["proc.cores_busy"] = median(busy)
	m["proc.self_s"] = median(r.self)
	m["proc.build_s"] = median(r.build)
	for k, v := range r.obs.counters {
		m[k] = v
	}
	if r.obs.modelErrPct > 0 {
		m["model_err_pct"] = r.obs.modelErrPct
	}
	c := r.obs.counters
	if ev, ok := c["sim.events"]; ok {
		m["sim.events_per_s"] = ev / wall
		m["sim.self_ns_per_event"] = m["sim.cpu_s"] / ev * 1e9
		m["sim.kernel_floor_s"] = ev * probed["sim.probe.hold_d8k_ns"] * 1e-9
	}
	if inv, ok := c["experiments.invocations"]; ok {
		m["experiments.invocations_per_s"] = inv / wall
	}
	if dec, ok := c["scheduler.decisions"]; ok {
		m["scheduler.decisions_per_s"] = dec / wall
	}
	rest, hasRest := 0.0, false
	for id, samples := range r.artifacts {
		if slices.Contains(namedArtifacts, id) {
			m["experiments."+id+".wall_s"] = median(samples)
		} else {
			rest, hasRest = rest+median(samples), true
		}
	}
	if hasRest {
		m["experiments.rest.wall_s"] = rest
	}
	return m
}

// printLadder sets the modelled cost of each rung beside the measured wall
// time of a macro-trace workload: what the event count would cost on a bare
// kernel at depth 8192, the arrivals on bare cursors, the invocations on a
// bare warm platform, and what is left for tenant logic and aggregation.
func printLadder(out io.Writer, r *result, arrivals float64, probed map[string]float64) {
	c, m := r.obs.counters, r.layer
	wall := fastest(r.wall)
	kernel := m["sim.kernel_floor_s"]
	cursors := arrivals * probed["traffic.probe.next_diurnal_ns"] * 1e-9
	admission := c["experiments.invocations"] * probed["faas.probe.group_invoke_release_ns"] / 8 * 1e-9
	self := m["proc.self_s"]
	fmt.Fprintf(out, "  ladder (host s; modelled from counters x probes, beside wall_s %.4f)\n", wall)
	for _, row := range []struct {
		name string
		v    float64
	}{
		{"sim kernel floor   (events x hold_d8k)", kernel},
		{"+ traffic cursors  (arrivals x next_diurnal)", cursors},
		{"+ faas admission   (invocations x group/8)", admission},
		{"+ tenant logic, aggregation (remainder)", wall - kernel - cursors - admission - self},
		{"+ process start, render, output (proc.self_s)", self},
	} {
		fmt.Fprintf(out, "    %-48s %8.4f  %5.1f%%\n", row.name, row.v, 100*row.v/wall)
	}
}
