package cache

import (
	"fmt"
	"math/bits"
)

// VictimStats accumulates access outcomes for a victim-cache hierarchy.
// A reference that misses the main cache but hits the victim buffer
// counts as a VictimHit, not a Miss: the line swaps back without a
// memory access, which is the whole point of the structure.
type VictimStats struct {
	Accesses   uint64
	Misses     uint64 // references that went to memory
	VictimHits uint64 // main-cache misses recovered by the buffer
	Writebacks uint64 // dirty lines evicted to memory
}

// lineDirty marks a dirty line in a Victim's dirty and vDirty bytes.
const lineDirty uint8 = 1

// Victim is a direct-mapped cache backed by a small fully-associative
// victim buffer (Jouppi's victim cache). A main-cache miss probes the
// buffer; on a buffer hit the line swaps with the main cache's resident
// line, on a full miss the evicted main line moves into the buffer and
// the buffer's LRU entry (if dirty) writes back. With zero entries the
// structure degenerates to the plain direct-mapped cache — identical
// miss and writeback counts — which anchors the ablation's baseline.
//
// The ablation asks how much of the set-associativity gap between MD
// and AM is plain conflict misses: if a handful of victim entries
// recovers it, the answer is yes; the residual is working-set capacity.
type Victim struct {
	cfg      Config
	entries  int
	tags     []uint32
	dirty    []uint8
	vTags    []uint32
	vDirty   []uint8
	vRank    []uint8 // permutation of 0..entries-1; 0 = MRU
	setMask  uint32
	blkShift uint32
	stats    VictimStats
}

// NewVictim builds a victim-cache hierarchy: cfg must be direct-mapped
// (the main cache), entries sizes the fully-associative buffer.
func NewVictim(cfg Config, entries int) (*Victim, error) {
	if cfg.Assoc != 1 {
		return nil, fmt.Errorf("cache: victim main cache must be direct-mapped, got %d-way", cfg.Assoc)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if entries < 0 || entries > 64 {
		return nil, fmt.Errorf("cache: victim buffer entries %d out of range [0, 64]", entries)
	}
	nSets := cfg.SizeBytes / cfg.BlockBytes
	v := &Victim{
		cfg:      cfg,
		entries:  entries,
		tags:     make([]uint32, nSets),
		dirty:    make([]uint8, nSets),
		vTags:    make([]uint32, entries),
		vDirty:   make([]uint8, entries),
		vRank:    make([]uint8, entries),
		setMask:  uint32(nSets - 1),
		blkShift: uint32(bits.TrailingZeros(uint(cfg.BlockBytes))),
	}
	for i := range v.tags {
		v.tags[i] = invalidTag
	}
	for i := range v.vTags {
		v.vTags[i] = invalidTag
		v.vRank[i] = uint8(i)
	}
	return v, nil
}

// Config returns the main cache's geometry.
func (v *Victim) Config() Config { return v.cfg }

// Entries returns the victim buffer's capacity.
func (v *Victim) Entries() int { return v.entries }

// Stats returns the accumulated statistics.
func (v *Victim) Stats() VictimStats { return v.stats }

// Access performs one read (write=false) or write (write=true) at the
// given byte address.
func (v *Victim) Access(addr uint32, write bool) {
	v.stats.Accesses++
	var d uint8
	if write {
		d = lineDirty
	}
	blk := addr >> v.blkShift
	s := blk & v.setMask
	if v.tags[s] == blk {
		v.dirty[s] |= d
		return
	}
	// Probe the victim buffer: a hit swaps the buffer entry with the
	// main cache's resident line and promotes the slot to MRU.
	for i := 0; i < v.entries; i++ {
		if v.vTags[i] != blk {
			continue
		}
		v.stats.VictimHits++
		v.tags[s], v.vTags[i] = v.vTags[i], v.tags[s]
		v.dirty[s], v.vDirty[i] = v.vDirty[i]|d, v.dirty[s]
		v.promote(i)
		return
	}
	// Full miss: the evicted main line moves into the buffer (or writes
	// back directly when there is no buffer), the new line fills main.
	v.stats.Misses++
	evTag, evDirty := v.tags[s], v.dirty[s]
	v.tags[s] = blk
	v.dirty[s] = d
	if evTag == invalidTag {
		return
	}
	if v.entries == 0 {
		if evDirty != 0 {
			v.stats.Writebacks++
		}
		return
	}
	lru := 0
	last := uint8(v.entries - 1)
	for i := 1; i < v.entries; i++ {
		if v.vRank[i] == last {
			lru = i
		}
	}
	if v.vTags[lru] != invalidTag && v.vDirty[lru] != 0 {
		v.stats.Writebacks++
	}
	v.vTags[lru] = evTag
	v.vDirty[lru] = evDirty
	v.promote(lru)
}

// promote moves buffer slot i to the front of the LRU order.
func (v *Victim) promote(i int) {
	r := v.vRank[i]
	for j := range v.vRank {
		if v.vRank[j] < r {
			v.vRank[j]++
		}
	}
	v.vRank[i] = 0
}
