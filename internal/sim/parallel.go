package sim

// The sanctioned parallel executor. This is the only file in internal/sim
// allowed to start goroutines or import sync (enforced by the root
// TestDeterminismPolicy's shardsafe rule): every other part of the
// kernel is single-threaded by construction, which is what makes the
// byte-identical determinism argument auditable.
//
// Inside one conservative lookahead window the shards are independent —
// cross-shard posts sit in per-shard outboxes until the barrier — so
// draining them concurrently runs the exact same per-shard work on
// disjoint state as the serial path, which drains them one after another.
// The only shared reads during a window are immutable configuration (seed,
// lookahead, workers) and the firing flag drainWindow set before the workers
// start: a named random stream is a value its one owner holds, on its own
// shard, so the kernel keeps no stream state to share.

import (
	"sync"
	"sync/atomic"
)

// drainWindowParallel executes one lookahead window with up to
// Simulation.workers goroutines pulling shards off a shared index. Shard
// assignment order does not matter: any interleaving produces the same
// per-shard results, and post delivery at the barrier (flushPosts) is
// sequential in shard order.
func (s *Simulation) drainWindowParallel(bound Time, inclusive bool) {
	w := s.workers
	if n := len(s.shards); w > n {
		w = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(s.shards) {
					return
				}
				s.shards[k].drain(bound, inclusive)
			}
		}()
	}
	wg.Wait()
}
