package repro_test

// Determinism gate for the parallel experiment engine: the same seed must
// produce byte-identical tables whether the engine runs fully serial or
// heavily oversubscribed. The representative set below touches every
// parallelized matrix shape — the HPT systems x models cells (fig9), the
// training matrix (fig13), the validation allocation sweep (fig19x), the
// flattened ablation combos (abl-faults), the (n, model) table blocks
// (tab2), the truth-run fan-out (fig4), the planning-only loop (fig21a)
// and the sharded-kernel macro scenarios (macro-day, macro-trace,
// macro-chaos), which exercise the multi-shard event merge — and, for
// macro-chaos, the compiled fault-injection path — underneath the
// engine-level parallelism.

import (
	"testing"

	"repro/internal/experiments"
)

var determinismIDs = []string{"fig4", "fig9", "fig13", "fig19x", "fig21a", "abl-faults", "tab2", "macro-day", "macro-trace", "macro-chaos"}

func renderAll(t *testing.T, ids []string, seed uint64, parallel int) string {
	t.Helper()
	var out string
	for _, o := range experiments.RunAll(ids, seed, experiments.Config{Parallel: parallel}) {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.ID, o.Err)
		}
		out += o.Table.String() + "\n" + o.Table.CSV() + "\n"
	}
	return out
}

func TestParallelOutputsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a representative artifact set twice")
	}
	const seed = 2023
	serial := renderAll(t, determinismIDs, seed, 1)
	parallel := renderAll(t, determinismIDs, seed, 8)

	if serial != parallel {
		// Find the first diverging line for a readable failure.
		a, b := serial, parallel
		line, col := 1, 1
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				lo := i - 80
				if lo < 0 {
					lo = 0
				}
				hi := i + 80
				if hi > len(a) {
					hi = len(a)
				}
				hib := hi
				if hib > len(b) {
					hib = len(b)
				}
				t.Fatalf("parallel output diverges from serial at line %d col %d:\nserial:   ...%q...\nparallel: ...%q...", line, col, a[lo:hi], b[lo:hib])
			}
			if a[i] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
		}
		t.Fatalf("parallel output length %d != serial length %d (common prefix identical)", len(parallel), len(serial))
	}
}

func TestRunAllPreservesRequestOrder(t *testing.T) {
	ids := []string{"tab4", "tab1", "fig7"} // cheap artifacts, shuffled order
	outcomes := experiments.RunAll(ids, 2023, experiments.Config{Parallel: 4})
	if len(outcomes) != len(ids) {
		t.Fatalf("got %d outcomes, want %d", len(outcomes), len(ids))
	}
	for i, o := range outcomes {
		if o.ID != ids[i] {
			t.Fatalf("outcome %d is %q, want %q (request order not preserved)", i, o.ID, ids[i])
		}
		if o.Err != nil {
			t.Fatalf("%s: %v", o.ID, o.Err)
		}
		if o.Table == nil || o.Table.ID != ids[i] {
			t.Fatalf("outcome %d table mismatch", i)
		}
	}
}

func TestRunAllUnknownIDIsPerOutcomeError(t *testing.T) {
	outcomes := experiments.RunAll([]string{"tab1", "no-such-artifact"}, 2023, experiments.Config{})
	if outcomes[0].Err != nil {
		t.Fatalf("tab1 failed: %v", outcomes[0].Err)
	}
	if outcomes[1].Err == nil {
		t.Fatal("unknown id did not produce an error outcome")
	}
}
