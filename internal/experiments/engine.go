package experiments

// The parallel experiment engine. Every artifact is a matrix of independent
// deterministic simulations (each cell builds its own sim.Simulation from an
// explicit seed), so both the artifact list and the inner system × model
// matrices parallelize trivially: run cells into index-addressed slots, merge
// in request order, and the output is byte-identical to a serial run.

import (
	"fmt"
	"runtime"
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

// parallelism is the engine-wide worker bound shared by RunAll and the
// per-artifact inner matrices (cells). Default: one worker per CPU.
var parallelism atomic.Int64

func init() { parallelism.Store(int64(runtime.GOMAXPROCS(0))) }

// Parallelism reports the current worker bound.
func Parallelism() int { return int(parallelism.Load()) }

// SetParallelism bounds the engine's concurrency; p < 1 is clamped to 1
// (fully serial). It applies both across artifacts and inside each
// artifact's experiment matrix.
func SetParallelism(p int) {
	if p < 1 {
		p = 1
	}
	parallelism.Store(int64(p))
}

// RunAll executes the named experiments on a bounded worker pool and returns
// their outcomes in request order; cfg sizes and shards the macro scenarios
// among them. Each artifact (and each cell inside one) owns its simulation
// state, so outputs are byte-identical to a serial run at any parallelism.
// Unknown ids and an invalid cfg surface as per-outcome errors, not a
// rejected batch.
func RunAll(ids []string, seed uint64, cfg Config) []Outcome {
	out := make([]Outcome, len(ids))
	run := func(i int) {
		start := time.Now() //cescalint:allow walltime -- per-artifact wall time is a stderr-only diagnostic; never printed to stdout
		t, err := runWith(ids[i], seed, cfg)
		elapsed := time.Since(start) //cescalint:allow walltime -- pairs with the start stamp above; stderr-only
		out[i] = Outcome{ID: ids[i], Table: t, Err: err, Elapsed: elapsed}
	}
	p := Parallelism()
	if p > len(ids) {
		p = len(ids)
	}
	if p <= 1 || len(ids) <= 1 {
		for i := range ids {
			run(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ids) {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// cells evaluates n independent experiment cells with the engine's worker
// bound and returns their results in index order. The first error by index
// wins (deterministically), mirroring where a serial loop would have
// stopped. f must not share mutable state across indices.
func cells[T any](n int, f func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	p := Parallelism()
	if p > n {
		p = n
	}
	if p <= 1 || n <= 1 {
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
