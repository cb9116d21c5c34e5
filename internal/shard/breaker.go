package shard

import (
	"sync"
	"time"
)

// Breaker states, exported through the worker.state.<i> gauges.
const (
	BreakerOpen     = 0 // worker quarantined; no leases until cooldown
	BreakerHalfOpen = 1 // cooldown elapsed; one probe attempt allowed
	BreakerClosed   = 2 // worker healthy
)

// breakerThreshold consecutive failures open a worker's breaker for
// breakerCooldown.
const (
	breakerThreshold = 3
	breakerCooldown  = time.Second
)

// breaker is a per-worker circuit breaker: breakerThreshold consecutive
// failures open it for breakerCooldown, after which a single probe
// attempt is admitted (half-open); a success closes it, another failure
// re-opens.
type breaker struct {
	mu        sync.Mutex
	fails     int
	openUntil time.Time
	probing   bool
}

// allow reports whether an attempt may be sent to this worker now, and
// transitions open → half-open when the cooldown has elapsed.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openUntil.IsZero() {
		return true
	}
	if now.Before(b.openUntil) {
		return false
	}
	if b.probing {
		return false // one probe at a time in half-open
	}
	b.probing = true
	return true
}

// ok records a success and closes the breaker.
func (b *breaker) ok() {
	b.mu.Lock()
	b.fails = 0
	b.openUntil = time.Time{}
	b.probing = false
	b.mu.Unlock()
}

// fail records a failure, reporting whether this transition opened the
// breaker (for the shard.breaker.opens counter).
func (b *breaker) fail(now time.Time) (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	b.probing = false
	if b.fails >= breakerThreshold {
		opened = b.openUntil.IsZero() || !now.Before(b.openUntil)
		b.openUntil = now.Add(breakerCooldown)
	}
	return opened
}

// state returns the breaker's current gauge value.
func (b *breaker) state(now time.Time) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.openUntil.IsZero():
		return BreakerClosed
	case now.Before(b.openUntil):
		return BreakerOpen
	default:
		return BreakerHalfOpen
	}
}
