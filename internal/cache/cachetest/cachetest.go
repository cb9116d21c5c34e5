// Package cachetest holds the reference model the replay kernel's tests
// compare against: an obviously correct LRU cache probed one reference
// at a time, with per-way structs, uint64 timestamps and a
// first-invalid-else-least-recent victim choice. Which of several empty
// ways takes a line is unobservable, so its statistics must equal a
// cache.Bank member's exactly.
package cachetest

import "jmtam/internal/cache"

type way struct {
	tag   uint32
	valid bool
	dirty bool
	used  uint64
}

// Cache is one write-back, write-allocate LRU cache.
type Cache struct {
	ways     []way
	assoc    int
	setMask  uint32
	blkShift uint32
	tick     uint64
	stats    cache.Stats
}

// New builds an empty cache of the given geometry, panicking on an
// invalid one.
func New(cfg cache.Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.SizeBytes / (cfg.BlockBytes * cfg.Assoc)
	bs := uint32(0)
	for 1<<bs < cfg.BlockBytes {
		bs++
	}
	return &Cache{
		ways:     make([]way, nSets*cfg.Assoc),
		assoc:    cfg.Assoc,
		setMask:  uint32(nSets - 1),
		blkShift: bs,
	}
}

// Access performs one read (write=false) or write (write=true) at the
// given byte address and reports whether it hit. Writes allocate on a
// miss and mark the line dirty; evicting a dirty line counts a
// writeback.
func (r *Cache) Access(addr uint32, write bool) bool {
	r.tick++
	r.stats.Accesses++
	blk := addr >> r.blkShift
	set := r.ways[int(blk&r.setMask)*r.assoc:][:r.assoc]
	for i := range set {
		if set[i].valid && set[i].tag == blk {
			set[i].used = r.tick
			set[i].dirty = set[i].dirty || write
			return true
		}
	}
	r.stats.Misses++
	v := -1
	for i := range set {
		if !set[i].valid {
			v = i
			break
		}
	}
	if v < 0 {
		v = 0
		for i := range set {
			if set[i].used < set[v].used {
				v = i
			}
		}
	}
	if set[v].valid && set[v].dirty {
		r.stats.Writebacks++
	}
	set[v] = way{tag: blk, valid: true, dirty: write, used: r.tick}
	return false
}

// Stats returns the accumulated statistics.
func (r *Cache) Stats() cache.Stats { return r.stats }
