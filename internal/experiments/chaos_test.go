package experiments

import "testing"

// TestFaultRestartFigure checks the recovery-policy figure's invariants:
// both faulted policies record the schedule's failures and cost more than
// the calm run, and the figure never reports a degraded or diverged run at
// this schedule (the brownout stays below retry exhaustion).
func TestFaultRestartFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("three full training runs skipped in -short mode")
	}
	tab, err := Run("fault-restart", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want no-fault/immediate/delayed", len(tab.Rows))
	}
	// Columns: policy JCT overhead failures restarts ckpt_retries degraded
	// cost converged.
	for _, row := range tab.Rows[1:] {
		if row[3] == "0" {
			t.Errorf("%s: no failures recorded under the kill schedule", row[0])
		}
		if row[8] != "true" {
			t.Errorf("%s: run did not converge", row[0])
		}
	}
	calm, imm := tab.Rows[0], tab.Rows[1]
	if calm[3] != "0" {
		t.Errorf("no-fault row records failures: %s", calm[3])
	}
	if imm[5] == "0" {
		t.Error("immediate: brownout never forced a checkpoint retry")
	}
}
