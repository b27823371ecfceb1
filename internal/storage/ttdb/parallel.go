package ttdb

import (
	"context"
	"sync"

	"hygraph/internal/obs"
)

// parallelFor runs fn(i) for every i in [0, n) across `workers` goroutines.
// Work is partitioned by striding — worker w takes i = w, w+workers, ... —
// so the assignment of items to workers is a pure function of (workers, n),
// never of scheduling. Callers write results into slot i of a pre-sized
// slice and fold the slice sequentially afterwards; that two-phase shape is
// what keeps parallel query results byte-identical to sequential ones (see
// docs/PARALLELISM.md). workers <= 1 degrades to a plain loop with no
// goroutine overhead, which is also the sequential reference path.
//
// Cancellation is cooperative: every worker checks the context between items
// and stops dispatching once it is done, so a server-assigned deadline
// cancels a fan-out after at most one in-flight item per worker. Items
// completed before the cancellation are left in the caller's result slice;
// the non-nil error tells the caller to discard them.
//
// The in-flight gauge is tracked at *worker* granularity: striding means at
// most `workers` items run at once, so per-worker accounting yields the same
// high watermark (peak concurrent width) as per-item accounting at
// O(workers) instead of O(n) gauge updates. A nil gauge is the
// uninstrumented path — its Add is a no-op.
func parallelFor(ctx context.Context, workers, n int, active *obs.Gauge, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		active.Add(1)
		defer active.Add(-1)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return ctx.Err()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			active.Add(1)
			defer active.Add(-1)
			for i := w; i < n; i += workers {
				if ctx.Err() != nil {
					return
				}
				fn(i)
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}
