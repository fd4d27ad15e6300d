package experiments

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func withParallelism(t *testing.T, p int) {
	t.Helper()
	prev := Parallelism()
	SetParallelism(p)
	t.Cleanup(func() { SetParallelism(prev) })
}

func TestCellsOrderAndCompleteness(t *testing.T) {
	for _, p := range []int{1, 2, 8, 64} {
		withParallelism(t, p)
		got, err := cells(100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("p=%d: cell %d = %d, want %d", p, i, v, i*i)
			}
		}
	}
}

func TestCellsLowestIndexErrorWins(t *testing.T) {
	withParallelism(t, 8)
	errLow, errHigh := errors.New("low"), errors.New("high")
	// Run repeatedly: under racy selection the later error could win.
	for round := 0; round < 20; round++ {
		_, err := cells(16, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, errLow
			case 12:
				return 0, errHigh
			}
			return i, nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("round %d: got %v, want the lowest-index error", round, err)
		}
	}
}

func TestCellsRunsEveryIndexOnce(t *testing.T) {
	withParallelism(t, 8)
	var calls [257]atomic.Int32
	_, err := cells(len(calls), func(i int) (struct{}, error) {
		calls[i].Add(1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("cell %d ran %d times", i, n)
		}
	}
}

func TestSetParallelismClamps(t *testing.T) {
	withParallelism(t, 4)
	SetParallelism(0)
	if Parallelism() != 1 {
		t.Fatalf("Parallelism() = %d after SetParallelism(0), want 1", Parallelism())
	}
	SetParallelism(-3)
	if Parallelism() != 1 {
		t.Fatalf("Parallelism() = %d after SetParallelism(-3), want 1", Parallelism())
	}
}

func TestCellErr(t *testing.T) {
	if cellErr("x", nil) != nil {
		t.Fatal("cellErr(nil) must stay nil")
	}
	base := errors.New("boom")
	err := cellErr("stage", base)
	if !errors.Is(err, base) {
		t.Fatal("cellErr must wrap the cause")
	}
	if got, want := err.Error(), "stage: boom"; got != want {
		t.Fatalf("cellErr message %q, want %q", got, want)
	}
}

func TestRunAllMatchesRun(t *testing.T) {
	withParallelism(t, 4)
	ids := []string{"tab1", "tab4"}
	outcomes := RunAll(ids, 7, Config{})
	for i, id := range ids {
		want, err := Run(id, 7)
		if err != nil {
			t.Fatal(err)
		}
		if outcomes[i].Err != nil {
			t.Fatalf("%s: %v", id, outcomes[i].Err)
		}
		if got := outcomes[i].Table.String(); got != want.String() {
			t.Fatalf("%s: RunAll table differs from Run:\n%s\nvs\n%s", id, got, fmt.Sprintf("%v", want))
		}
	}
}
