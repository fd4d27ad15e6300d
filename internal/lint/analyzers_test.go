package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// testPolicy marks the testdata fixtures deterministic (they are linted
// under their natural import paths) and seeds a forbid list for the
// importboundary fixture.
const testPolicy = `
deterministic repro/internal/lint/testdata/...
forbid net
shard-restricted repro/internal/lint/testdata/shardsafe
shard-exempt repro/internal/lint/testdata/shardsafe/executor.go
`

func testRunner(t *testing.T) *Runner {
	t.Helper()
	root, module, err := FindModule(".")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	pol, err := ParsePolicy([]byte(testPolicy), "test.policy")
	if err != nil {
		t.Fatalf("ParsePolicy: %v", err)
	}
	return NewRunner(root, module, pol)
}

func fixtureTarget(t *testing.T, name string) Target {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return Target{Dir: dir, Path: "repro/internal/lint/testdata/" + name}
}

func render(findings []Finding) string {
	var b strings.Builder
	for _, f := range findings {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// goldenFixtures names the testdata packages with a golden transcript.
var goldenFixtures = []string{
	"walltime", "globalrand", "maporder", "fpreduce", "importboundary",
	"pragma", "shardsafe", "stalepragma",
}

// TestAnalyzersGolden proves each analyzer catches its seeded violations —
// and nothing else — by comparing against a golden transcript.
func TestAnalyzersGolden(t *testing.T) {
	for _, name := range goldenFixtures {
		t.Run(name, func(t *testing.T) {
			r := testRunner(t)
			findings, err := r.Run([]Target{fixtureTarget(t, name)})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(findings) == 0 {
				t.Fatalf("fixture %s produced no findings; seeded violations missed", name)
			}
			got := render(findings)
			goldenPath := filepath.Join("testdata", name, "golden.txt")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestUnknownPragmaAnalyzerIsFinding pins the satellite requirement
// explicitly: a misspelled analyzer name in an allow-pragma is itself a
// finding, and the malformed pragma suppresses nothing. The annotations of
// the static allocation analyzer this suite once had are two more such
// cases, so one that comes back with a merge cannot linger.
func TestUnknownPragmaAnalyzerIsFinding(t *testing.T) {
	r := testRunner(t)
	findings, err := r.Run([]Target{fixtureTarget(t, "pragma")})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	malformed := []struct{ message, missed string }{
		{`unknown analyzer "waltime"`, "misspelled analyzer name in pragma was not reported"},
		{"requires a reason", "pragma without -- reason was not reported"},
		{`unknown cescalint directive "deny"`, "unknown cescalint directive was not reported"},
		{`unknown cescalint directive "hotpath"`, "the retired function annotation was not reported as an unknown directive"},
		{`unknown analyzer "hotpath"`, "an allow-pragma naming the retired analyzer was not reported"},
	}
	reported := make([]bool, len(malformed))
	walltimeLines := 0
	for _, f := range findings {
		for i, m := range malformed {
			if f.Analyzer == "pragma" && strings.Contains(f.Message, m.message) {
				reported[i] = true
			}
		}
		if f.Analyzer == "walltime" {
			walltimeLines++
		}
	}
	for i, m := range malformed {
		if !reported[i] {
			t.Error(m.missed)
		}
	}
	// Suppressed() is covered by a valid pragma; the other three time.Now
	// calls sit under malformed pragmas and must still be findings.
	if walltimeLines != 3 {
		t.Errorf("want 3 unsuppressed walltime findings, got %d", walltimeLines)
	}
}

// TestPolicyGapIsFinding pins the completeness satellite: a package in no
// policy set is itself a finding, attributed to the policy pseudo-analyzer.
func TestPolicyGapIsFinding(t *testing.T) {
	root, module, err := FindModule(".")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	// Deliberately cover everything under testdata except policygap.
	pol, err := ParsePolicy([]byte("deterministic repro/internal/lint/testdata/walltime"), "test.policy")
	if err != nil {
		t.Fatalf("ParsePolicy: %v", err)
	}
	r := NewRunner(root, module, pol)
	findings, err := r.Run([]Target{fixtureTarget(t, "policygap")})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(findings) != 1 {
		t.Fatalf("want exactly the policy-gap finding, got %d: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "policy" || !strings.Contains(f.Message, "not covered by cescalint.policy") {
		t.Errorf("unexpected finding: %v", f)
	}
	// The same package under a policy that lists it (unchecked) is silent.
	pol2, err := ParsePolicy([]byte("unchecked repro/internal/lint/testdata/policygap"), "test.policy")
	if err != nil {
		t.Fatalf("ParsePolicy: %v", err)
	}
	r2 := NewRunner(root, module, pol2)
	findings, err = r2.Run([]Target{fixtureTarget(t, "policygap")})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(findings) != 0 {
		t.Errorf("unchecked package must lint silent, got %v", findings)
	}
}
