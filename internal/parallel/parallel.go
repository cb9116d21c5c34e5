// Package parallel provides the bounded worker pool underneath the
// experiment engine's fan-out paths: concurrent simulations, each of
// which replays its own streams while it records, and the geometry
// groups of a kept recording's replay.
//
// Results stay deterministic because callers index their output by task
// position, never by completion order; the pool only decides *when* a
// task runs, not *where* its result lands.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a parallelism setting: values above zero are taken
// as-is, anything else selects GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach invokes fn(i) for every i in [0,n) on at most workers
// goroutines (workers <= 0 selects GOMAXPROCS). Tasks are claimed in
// index order. The first error stops the pool: running tasks finish,
// unclaimed tasks are abandoned, and that error is returned.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachContext(context.Background(), workers, n, fn)
}

// ForEachContext is ForEach with cooperative cancellation: the context
// is checked before each task is claimed, so cancellation stops the
// pool after at most one in-flight task per worker. When the context is
// cancelled and no task error occurred first, the context's error is
// returned. A context that can never be cancelled pays no overhead.
func ForEachContext(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	done := ctx.Done()
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	cancelled := func() bool {
		if done == nil {
			return false
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	if workers == 1 {
		// Serial fast path: no goroutines, deterministic error (lowest
		// failing index).
		for i := 0; i < n; i++ {
			if cancelled() {
				return ctx.Err()
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next    atomic.Int64
		stopped atomic.Bool
		mu      sync.Mutex
		first   error
		wg      sync.WaitGroup
	)
	fail := func(err error) {
		stopped.Store(true)
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if cancelled() {
					fail(ctx.Err())
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n || stopped.Load() {
					return
				}
				if err := fn(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
