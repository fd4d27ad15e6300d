package experiments

// The parallel experiment engine. Every artifact is a matrix of independent
// deterministic simulations (each cell builds its own sim.Simulation from an
// explicit seed), so both the artifact list and the inner system × model
// matrices parallelize trivially: run cells into index-addressed slots, merge
// in request order, and the output is byte-identical to a serial run.

import (
	"cmp"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Outcome is the result of one artifact run by RunAll.
type Outcome struct {
	ID      string
	Table   *Table // nil when Err is set
	Err     error
	Elapsed time.Duration // wall-clock of this artifact alone
}

// RunAll executes the named experiments on cfg.Parallel workers and returns
// their outcomes in request order; cfg also sizes and shards the macro
// scenarios among them and carries the collector they record into. Each
// artifact (and each cell inside one) owns its simulation state, so outputs
// are byte-identical to a serial run at any parallelism. The package keeps
// no state between calls; what lives on are two process-wide interns of
// the packages it calls: grid tables with their Pareto frontiers in cost
// and SGD trajectories, with their generated matrices, in workload. Each is
// keyed by every input of what it holds, so a miss, a re-miss after an
// eviction included, computes the same bits, and concurrent RunAlls (each
// with its own collector) do not affect each other's output. Unknown ids
// and an invalid cfg surface as per-outcome errors, not a rejected batch.
func RunAll(ids []string, seed uint64, cfg Config) []Outcome {
	invalid := cfg.Validate()
	out, _ := cells(cfg, len(ids), func(i int) (Outcome, error) {
		o := Outcome{ID: ids[i]}
		// Per-artifact wall time is a stderr-only diagnostic, never printed
		// to stdout.
		start := time.Now()
		switch r, ok := registry[o.ID]; {
		case invalid != nil:
			o.Err = invalid
		case !ok:
			o.Err = fmt.Errorf("experiments: unknown experiment %q (known: %s)", o.ID, strings.Join(IDs(), ", "))
		default:
			o.Table, o.Err = r(seed, cfg)
		}
		o.Elapsed = time.Since(start) // pairs with the start stamp above; stderr-only
		// A failed artifact is an outcome, not a reason to stop the batch.
		return o, nil
	})
	return out
}

// cells evaluates n independent experiment cells on cfg.Parallel workers
// (0 = one per CPU) and returns their results in index order. The first
// error by index wins (deterministically), mirroring where a serial loop
// would have stopped. f must not share mutable state across indices; a
// core.Framework's history tree is the one exception, because it is locked
// and each of its answers is a pure function of its key.
func cells[T any](cfg Config, n int, f func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	p := min(cmp.Or(cfg.Parallel, runtime.GOMAXPROCS(0)), n)
	if p <= 1 {
		for i := 0; i < n; i++ {
			results[i], errs[i] = f(i)
			if errs[i] != nil {
				return nil, errs[i]
			}
		}
		return results, nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i], errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// cellRows runs n cells of row blocks (see cells), sets t's rows to the
// blocks concatenated in index order and returns t. On a cell error it
// returns no table, as a failed artifact must.
func cellRows(t *Table, cfg Config, n int, f func(i int) ([][]string, error)) (*Table, error) {
	blocks, err := cells(cfg, n, f)
	if err != nil {
		return nil, err
	}
	for _, rows := range blocks {
		t.Rows = append(t.Rows, rows...)
	}
	return t, nil
}

// cellErr annotates a cell error with its label, matching the serial loops'
// fmt.Errorf("%s: %w", name, err) convention.
func cellErr(label string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", label, err)
}
