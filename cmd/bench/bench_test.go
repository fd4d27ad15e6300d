package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps the root BENCHMARK.json identical to
// the lists this package measures by, and inside the driver's format limits.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(spec.Paths, " "); got != "cmd/bench benchmark" {
		t.Errorf("paths = %q", got)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d = %+v, want {%s %s}", i, got, w.name, w.why)
		}
		name(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}

	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in metrics.go", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end_to_end %d = %+v, want %+v", i, got, m)
		}
		name(m.name)
		if !unitRE.MatchString(m.unit) || got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: unit %q or bound %v out of range", m.name, m.unit, got.Bound)
		}
	}

	if len(spec.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in metrics.go (at most 128)", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := spec.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer %d = %+v, want %+v", i, got, m)
		}
		name(m.name)
		if !unitRE.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") {
			t.Errorf("%s: unit %q or direction %q is malformed", m.name, m.unit, m.better)
		}
	}
}

// TestSmoke drives the whole benchmark at smoke size: it builds cebench from
// this checkout, runs every workload end to end and then traced, and
// requires every output check to pass. Timings are printed, not judged.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cebench")
	}
	// The driver builds ./cmd/cebench and reads benchmark/golden relative to
	// the repository root.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join("..", "..")); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	for _, args := range [][]string{{"-smoke"}, {"-smoke", "-layers"}} {
		out := t.TempDir()
		var stdout bytes.Buffer
		code := runBench(append(args, "-out", out), &stdout, &stdout)
		t.Logf("bench %s\n%s", strings.Join(args, " "), stdout.String())
		if code != 0 {
			t.Fatalf("bench %s exited %d", strings.Join(args, " "), code)
		}
		var rep report
		data, err := os.ReadFile(filepath.Join(out, "result.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		if len(rep.Sets) != 1 || len(rep.Sets[0]) != len(workloads) {
			t.Fatalf("result.json has %d sets", len(rep.Sets))
		}
		for _, w := range rep.Sets[0] {
			if w.Failed != 0 || w.Attempted == 0 || w.EndToEnd["wall_s"].Value <= 0 || w.EndToEnd["peak_rss_mb"].Value <= 0 {
				t.Errorf("%s: %d failed of %d, wall %v", w.Name, w.Failed, w.Attempted, w.EndToEnd["wall_s"])
			}
			if rep.Layers {
				for _, k := range []string{"sim.cpu_s", "other.cpu_s", "proc.profile_overhead_frac", "proc.self_s", "experiments.artifacts"} {
					if _, ok := w.Layers[k]; !ok {
						t.Errorf("%s: traced run reports no %s", w.Name, k)
					}
				}
			}
		}
		if rep.Layers {
			if _, err := os.Stat(filepath.Join(out, "trace.json")); err != nil {
				t.Error(err)
			}
			for _, p := range probes {
				if rep.Probes[p.name] <= 0 {
					t.Errorf("probe %s = %v", p.name, rep.Probes[p.name])
				}
			}
		}
		if rep.Sets[0][1].Digest != rep.Sets[0][2].Digest {
			t.Error("trace-s1 and trace-s8w2 digests differ")
		}
	}
}
