package server

import (
	"sync"

	"jmtam/internal/core"
	"jmtam/internal/obs"
)

// cacheKey identifies one compiled artifact: the code store and layout
// for a (program, problem size, implementation) triple are immutable
// once built, so repeat jobs bind a fresh Program onto the cached
// artifact and skip code generation entirely.
type cacheKey struct {
	prog string
	arg  int
	impl core.Impl
}

// codeCache is a bounded FIFO cache of compiled artifacts. The compile
// itself runs outside the lock — two racing jobs for the same key may
// both compile, and the later insert wins; that wastes one compile but
// never blocks unrelated jobs behind a slow build.
type codeCache struct {
	mu      sync.Mutex
	max     int
	entries map[cacheKey]*core.Compiled
	order   []cacheKey
	metrics *obs.Shared
}

func newCodeCache(max int, m *obs.Shared) *codeCache {
	if max <= 0 {
		max = 32
	}
	return &codeCache{max: max, entries: make(map[cacheKey]*core.Compiled), metrics: m}
}

// get returns the cached artifact for k, compiling (and inserting) on a
// miss. The returned bool reports a hit, counted in codecache.hits/misses.
func (c *codeCache) get(k cacheKey, compile func() (*core.Compiled, error)) (*core.Compiled, bool, error) {
	c.mu.Lock()
	comp, ok := c.entries[k]
	c.mu.Unlock()
	if ok {
		c.metrics.Count("codecache.hits", 1)
		return comp, true, nil
	}
	c.metrics.Count("codecache.misses", 1)

	comp, err := compile()
	if err != nil {
		return nil, false, err
	}

	c.mu.Lock()
	if _, ok := c.entries[k]; !ok {
		c.entries[k] = comp
		c.order = append(c.order, k)
		if len(c.order) > c.max {
			evict := c.order[0]
			c.order = c.order[1:]
			delete(c.entries, evict)
		}
	}
	c.mu.Unlock()
	return comp, false, nil
}

// len returns the number of cached artifacts.
func (c *codeCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
