package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCellsOrderAndCompleteness(t *testing.T) {
	for _, p := range []int{0, 1, 2, 8, 64} {
		got, err := cells(Config{Parallel: p}, 100, func(i int) (int, error) { return i * i, nil })
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
	errLow, errHigh := errors.New("low"), errors.New("high")
	// Run repeatedly: under racy selection the later error could win.
	for round := 0; round < 20; round++ {
		_, err := cells(Config{Parallel: 8}, 16, func(i int) (int, error) {
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
	var calls [257]atomic.Int32
	_, err := cells(Config{Parallel: 8}, len(calls), func(i int) (struct{}, error) {
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

// TestParallelZeroIsGOMAXPROCS: the zero Config runs one worker per CPU.
// Three cells that each wait for the other two can only finish if all three
// are in flight at once.
func TestParallelZeroIsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	var arrived sync.WaitGroup
	arrived.Add(3)
	all := make(chan struct{})
	go func() { arrived.Wait(); close(all) }()
	_, err := cells(Config{}, 3, func(i int) (int, error) {
		arrived.Done()
		select {
		case <-all:
			return i, nil
		case <-time.After(10 * time.Second):
			return 0, errors.New("cells did not run GOMAXPROCS cells at once")
		}
	})
	if err != nil {
		t.Fatal(err)
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
	ids := []string{"tab1", "tab4"}
	outcomes := RunAll(ids, 7, Config{Parallel: 4})
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
