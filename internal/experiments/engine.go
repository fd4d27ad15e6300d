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
// are byte-identical to a serial run at any parallelism, and the package
// keeps no state between calls, so concurrent RunAlls (each with its own
// collector) do not affect each other. Unknown ids and an invalid cfg
// surface as per-outcome errors, not a rejected batch.
func RunAll(ids []string, seed uint64, cfg Config) []Outcome {
	invalid := cfg.Validate()
	out, _ := cells(cfg, len(ids), func(i int) (Outcome, error) {
		o := Outcome{ID: ids[i]}
		start := time.Now() //cescalint:allow walltime -- per-artifact wall time is a stderr-only diagnostic; never printed to stdout
		switch r, ok := registry[o.ID]; {
		case invalid != nil:
			o.Err = invalid
		case !ok:
			o.Err = fmt.Errorf("experiments: unknown experiment %q (known: %s)", o.ID, strings.Join(IDs(), ", "))
		default:
			o.Table, o.Err = r(seed, cfg)
		}
		o.Elapsed = time.Since(start) //cescalint:allow walltime -- pairs with the start stamp above; stderr-only
		// A failed artifact is an outcome, not a reason to stop the batch.
		return o, nil
	})
	return out
}

// cells evaluates n independent experiment cells on cfg.Parallel workers
// (0 = one per CPU) and returns their results in index order. The first
// error by index wins (deterministically), mirroring where a serial loop
// would have stopped. f must not share mutable state across indices.
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

// cellErr annotates a cell error with its label, matching the serial loops'
// fmt.Errorf("%s: %w", name, err) convention.
func cellErr(label string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", label, err)
}
