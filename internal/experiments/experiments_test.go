package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig3", "fig4", "fig7", "fig9", "fig10", "fig11", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
		"fig21a", "fig21b", "fig21c", "tab1", "tab2", "tab4", "fig2", "fig19x",
		"abl-gap", "abl-workflow", "abl-asp", "abl-hyperband", "abl-pocket", "abl-faults", "abl-bohb", "abl-cluster",
		"macro-day", "macro-fleet", "macro-trace", "macro-chaos", "fault-restart",
	}
	for _, id := range want {
		if _, ok := registry[id]; !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d experiments, want %d: %v", len(IDs()), len(want), IDs())
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", 1); err == nil {
		t.Error("unknown id should error")
	}
}

func TestTableString(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Headers: []string{"a", "bb"},
		Rows: [][]string{{"1", "2"}}, Notes: "n"}
	s := tab.String()
	for _, want := range []string{"== x: demo ==", "a", "bb", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

// fastExperiments are cheap enough to execute fully in unit tests; the
// heavyweight matrices are exercised by the benchmarks.
var fastExperiments = []string{"tab1", "tab4", "fig7", "fig19", "fig20", "fig21a"}

func TestFastExperimentsProduceRows(t *testing.T) {
	for _, id := range fastExperiments {
		tab, err := Run(id, 1)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
		for ri, row := range tab.Rows {
			if len(row) != len(tab.Headers) {
				t.Errorf("%s row %d has %d cells, want %d", id, ri, len(row), len(tab.Headers))
			}
		}
	}
}

func TestTab1MatchesPaperTableI(t *testing.T) {
	tab, err := Run("tab1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("tab1 has %d rows, want 4", len(tab.Rows))
	}
	if tab.Rows[0][0] != "S3" || tab.Rows[0][2] != "High" {
		t.Errorf("S3 row wrong: %v", tab.Rows[0])
	}
	if tab.Rows[3][0] != "VM-PS" || tab.Rows[3][3] != "Execution time" {
		t.Errorf("VM-PS row wrong: %v", tab.Rows[3])
	}
}

func TestFig19ErrorsSingleDigit(t *testing.T) {
	tab, err := Run("fig19", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		for _, col := range []int{3, 6} { // JCT err, cost err
			v := strings.TrimSuffix(row[col], "%")
			e, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("unparseable error cell %q", row[col])
			}
			if e > 25 {
				t.Errorf("validation error %s%% too large for %s (model broken?)", v, row[0])
			}
		}
	}
}

func TestFig7MarksParetoMembers(t *testing.T) {
	tab, err := Run("fig7", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 50 {
		t.Fatalf("fig7 sampled %d allocations, want 50", len(tab.Rows))
	}
	stars := 0
	for _, row := range tab.Rows {
		if row[3] == "*" {
			stars++
		}
	}
	if stars == 0 {
		t.Error("no sampled allocation lies on the Pareto boundary")
	}
	if stars == len(tab.Rows) {
		t.Error("every sampled allocation on the boundary; pruning trivial")
	}
}

func TestDeterministicTables(t *testing.T) {
	for _, id := range []string{"fig19", "tab2"} {
		a, err := Run(id, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(id, 7)
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("%s is not deterministic", id)
		}
	}
}

func TestTab2DynamoNA(t *testing.T) {
	tab, err := Run("tab2", 2)
	if err != nil {
		t.Fatal(err)
	}
	sawNA, sawValue := false, false
	for _, row := range tab.Rows {
		if row[2] == "DynamoDB" {
			switch {
			case strings.Contains(row[1], "MobileNet") && row[3] == "N/A":
				sawNA = true
			case strings.Contains(row[1], "LR") && row[3] != "N/A":
				sawValue = true
			}
		}
	}
	if !sawNA {
		t.Error("MobileNet on DynamoDB should be N/A")
	}
	if !sawValue {
		t.Error("LR on DynamoDB should have values")
	}
}
