package parallel

import "context"

// Pool is a long-lived bounded slot pool for admission control. Unlike
// ForEach, whose workers exist only for the duration of one fan-out, a
// Pool outlives any single batch: a serving daemon acquires one slot
// per accepted job and releases it when the job finishes or is
// cancelled, so at most Cap jobs simulate concurrently while later
// submissions queue.
type Pool struct {
	slots chan struct{}
}

// NewPool returns a pool with the given number of slots (<= 0 selects
// GOMAXPROCS).
func NewPool(workers int) *Pool {
	return &Pool{slots: make(chan struct{}, Workers(workers))}
}

// Acquire blocks until a slot is free or the context ends, returning
// ctx.Err() in the latter case. Each successful Acquire must be paired
// with exactly one Release.
func (p *Pool) Acquire(ctx context.Context) error {
	select {
	case p.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot to the pool.
func (p *Pool) Release() { <-p.slots }

// Cap returns the pool's slot count.
func (p *Pool) Cap() int { return cap(p.slots) }

// InUse returns the number of currently held slots.
func (p *Pool) InUse() int { return len(p.slots) }
