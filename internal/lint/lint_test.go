package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// allFixtures returns every golden testdata package as a lint target.
func allFixtures(t *testing.T) []Target {
	t.Helper()
	var targets []Target
	for _, name := range goldenFixtures {
		targets = append(targets, fixtureTarget(t, name))
	}
	return targets
}

// TestOutputByteIdenticalAndSorted is the driver's own determinism
// regression: two independent runs over a multi-package tree with many
// findings must render byte-identically, already sorted by
// file:line:column.
func TestOutputByteIdenticalAndSorted(t *testing.T) {
	var outputs [2]string
	for i := range outputs {
		r := testRunner(t) // fresh FileSet, importer, and caches each run
		findings, err := r.Run(allFixtures(t))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if len(findings) < 10 {
			t.Fatalf("run %d: want a rich finding set across fixtures, got %d", i, len(findings))
		}
		for j := 1; j < len(findings); j++ {
			a, b := findings[j-1], findings[j]
			if a.File > b.File || (a.File == b.File && (a.Line > b.Line || (a.Line == b.Line && a.Col > b.Col))) {
				t.Errorf("run %d: findings out of order: %v before %v", i, a, b)
			}
		}
		outputs[i] = render(findings)
	}
	if outputs[0] != outputs[1] {
		t.Errorf("output differs across runs\n--- first ---\n%s--- second ---\n%s", outputs[0], outputs[1])
	}
}

// TestTreeIsClean lints the real module with the real policy: the
// acceptance criterion that `go run ./cmd/cescalint ./...` exits 0.
func TestTreeIsClean(t *testing.T) {
	root, module, err := FindModule(".")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	pol, err := LoadPolicy(filepath.Join(root, "cescalint.policy"))
	if err != nil {
		t.Fatalf("LoadPolicy: %v", err)
	}
	r := NewRunner(root, module, pol)
	targets, err := r.DiscoverTargets()
	if err != nil {
		t.Fatalf("DiscoverTargets: %v", err)
	}
	if len(targets) < 20 {
		t.Fatalf("discovered only %d packages; module walk is broken", len(targets))
	}
	findings, err := r.Run(targets)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding: %v", f)
	}
}

func TestPolicyParse(t *testing.T) {
	pol, err := ParsePolicy([]byte(`
# comment
deterministic repro/internal/sim
deterministic repro/internal/platform/...
output repro/cmd/...
forbid net
shard-restricted repro/internal/sim
shard-exempt repro/internal/sim/parallel.go
`), "p")
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]bool{
		"repro/internal/sim":          true,
		"repro/internal/sim/sub":      false, // exact pattern, no /...
		"repro/internal/platform":     true,
		"repro/internal/platform/sub": true, // prefix pattern includes it
		"repro/internal/cost":         false,
	} {
		if got := pol.IsDeterministic(path); got != want {
			t.Errorf("IsDeterministic(%q) = %v, want %v", path, got, want)
		}
	}
	if !pol.IsOutput("repro/cmd/cebench") || pol.IsOutput("repro/internal/sim") {
		t.Error("output set mismatched")
	}
	for path, want := range map[string]bool{
		"net":               true,
		"net/http":          true,
		"network":           false,
		"repro/internal/ml": false,
	} {
		if got := pol.ForbiddenImport(path); got != want {
			t.Errorf("ForbiddenImport(%q) = %v, want %v", path, got, want)
		}
	}
	if !pol.IsShardRestricted("repro/internal/sim") || pol.IsShardRestricted("repro/internal/faas") {
		t.Error("shard-restricted set mismatched")
	}
	if !pol.IsShardExempt("repro/internal/sim/parallel.go") {
		t.Error("shard-exempt file not recognized")
	}
	if pol.IsShardExempt("repro/internal/sim/sim.go") || pol.IsShardExempt("repro/internal/sim/parallel.go.bak") {
		t.Error("shard-exempt must match exactly")
	}
}

func TestPolicyParseErrors(t *testing.T) {
	for _, bad := range []string{
		"determinstic repro/internal/sim", // misspelled keyword
		"deterministic",                   // missing pattern
		"forbid net extra",                // too many fields
	} {
		if _, err := ParsePolicy([]byte(bad), "p"); err == nil {
			t.Errorf("ParsePolicy(%q): want error, got nil", bad)
		}
	}
}

// TestPragmaRequiresAdjacency pins the suppression radius: a valid pragma
// only covers its own line and the line below, so a stale pragma cannot
// blanket a whole file.
func TestPragmaRequiresAdjacency(t *testing.T) {
	r := testRunner(t)
	findings, err := r.Run([]Target{fixtureTarget(t, "walltime")})
	if err != nil {
		t.Fatal(err)
	}
	suppressedLineSeen := false
	for _, f := range findings {
		if f.Analyzer == "walltime" && strings.Contains(f.Message, "time.Now") && strings.Contains(f.File, "walltime") {
			// The pragma-covered Allowed() body must not appear; the Bad()
			// body must. Golden covers exact lines; here we just ensure at
			// least one Now finding survived outside the pragma.
			suppressedLineSeen = true
		}
	}
	if !suppressedLineSeen {
		t.Error("expected an unsuppressed time.Now finding in the walltime fixture")
	}
}
