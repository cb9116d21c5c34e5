// Package cache implements the trace-driven cache simulator used for the
// paper's evaluation: separate instruction and data caches, write-back
// with write-allocate, true LRU replacement, 1/2/4-way set associativity
// (higher associativities for the ablations), block sizes of 8-64 bytes
// and total sizes of 1K-128K bytes.
//
// The simulator is purely functional on an address stream: miss penalties
// do not feed back into replacement decisions, so a single simulation pass
// yields miss counts from which total cycles for any miss penalty are
// derived analytically (cycles = instructions + penalty * misses), exactly
// as in the paper's methodology (one cycle per instruction plus memory
// access time, comparing absolute cycle counts rather than miss rates).
//
// The state layout is struct-of-arrays, sized for the replay hot loop: a
// flat set-indexed tag array (invalid ways hold an unreachable sentinel
// tag, so the hit probe is a bare compare), one dirty byte per way, and
// compact LRU rank bytes (a packed recency-order byte per 4-way set,
// promoted by table lookup; a permutation of 0..assoc-1 per set
// otherwise) instead of 64-bit timestamps and a victim scan. Access
// dispatches to a per-associativity specialization chosen at
// construction; AccessBatch / AccessBatchFetch amortize dispatch and
// statistics over a whole block of packed references.
//
// A Bank drives many caches with one stream and strips, before any
// cache probes them, the references that cannot change a cache (Puzak's
// trace stripping). A reference to the block that a direct-mapped
// filter last saw in its set is a most-recently-used hit in every LRU
// cache of that block size with at least as many sets (Mattson et al.'s
// set refinement), so those caches count it as a hit unprobed and every
// statistic stays exact; see Bank.
package cache

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// Config describes one cache geometry.
type Config struct {
	SizeBytes  int // total capacity
	BlockBytes int // line size
	Assoc      int // ways per set (1 = direct-mapped)
}

// Validate checks the geometry for consistency. Blocks must be at least
// one 4-byte machine word (the access granularity), and associativity at
// most 256 (the LRU rank bytes' range).
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.SizeBytes&(c.SizeBytes-1) != 0:
		return fmt.Errorf("cache: size %d not a positive power of two", c.SizeBytes)
	case c.BlockBytes <= 0 || c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("cache: block size %d not a positive power of two", c.BlockBytes)
	case c.BlockBytes < 4:
		return fmt.Errorf("cache: block size %d below the 4-byte word", c.BlockBytes)
	case c.Assoc <= 0:
		return fmt.Errorf("cache: associativity %d not positive", c.Assoc)
	case c.Assoc > 256:
		return fmt.Errorf("cache: associativity %d above 256", c.Assoc)
	case c.SizeBytes < c.BlockBytes*c.Assoc:
		return fmt.Errorf("cache: size %d too small for %d-way sets of %d-byte blocks",
			c.SizeBytes, c.Assoc, c.BlockBytes)
	}
	return nil
}

// String renders the geometry as, e.g., "8K/4-way/64B".
func (c Config) String() string {
	return fmt.Sprintf("%dK/%d-way/%dB", c.SizeBytes/1024, c.Assoc, c.BlockBytes)
}

// Stats accumulates access outcomes.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64 // dirty lines evicted (write-back traffic)
}

// MissRate returns misses per access, or zero when idle.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// stDirty marks a resident line dirty in Cache.meta. Validity needs no
// bit: an empty way holds the unreachable sentinel tag, so a dirty byte
// is the only per-way state.
const stDirty uint8 = 1 << 1

// invalidTag marks a way that holds no line. Block sizes are at least 4
// bytes, so block numbers never exceed 2^30-1 and can never equal it.
const invalidTag = ^uint32(0)

// promo4 is the 4-way LRU promotion table. A set's recency order is one
// packed byte: bits 1:0 name the most recently used way, bits 7:6 the
// victim. promo4[ord<<2|way] is the order after a hit on that way (the
// way moves to the front, the rest shift back one place); a miss needs
// no table — the victim is ord>>6 and the new order is ord<<2|victim.
var promo4 [1024]uint8

func init() {
	for ord := 0; ord < 256; ord++ {
		for h := uint8(0); h < 4; h++ {
			out := [4]uint8{h}
			n := 1
			for p := 0; p < 4; p++ {
				if w := uint8(ord>>(2*p)) & 3; w != h && n < 4 {
					out[n] = w
					n++
				}
			}
			promo4[ord<<2|int(h)] = out[0] | out[1]<<2 | out[2]<<4 | out[3]<<6
		}
	}
}

// Write flag carried in bit 0 of a packed batch reference (addresses are
// word-aligned, so bits 0-1 of the byte address are free).
const RefWrite = uint32(1)

// Cache is one cache instance. Construct with New.
//
// State is struct-of-arrays: tags holds block numbers (invalidTag when
// empty), meta the dirty bytes, and rank the LRU order. 2-way caches
// keep one byte per set naming the most recently used way; 4-way caches
// one packed order byte per set (see promo4); other associativities one
// byte per way forming a permutation of 0..assoc-1 per set (0 = most
// recent, assoc-1 = the victim). Direct-mapped caches do not use rank.
type Cache struct {
	cfg      Config
	tags     []uint32
	meta     []uint8
	rank     []uint8
	assoc    int
	setMask  uint32
	blkShift uint32
	stats    Stats
}

// New builds a cache for the given geometry.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nSets := cfg.SizeBytes / (cfg.BlockBytes * cfg.Assoc)
	c := &Cache{
		cfg:      cfg,
		tags:     make([]uint32, nSets*cfg.Assoc),
		meta:     make([]uint8, nSets*cfg.Assoc),
		assoc:    cfg.Assoc,
		setMask:  uint32(nSets - 1),
		blkShift: uint32(bits.TrailingZeros(uint(cfg.BlockBytes))),
	}
	switch {
	case cfg.Assoc == 2 || cfg.Assoc == 4:
		c.rank = make([]uint8, nSets)
	case cfg.Assoc > 2:
		c.rank = make([]uint8, nSets*cfg.Assoc)
	}
	c.initState()
	return c, nil
}

// initState marks every way empty and seeds the LRU ranks.
func (c *Cache) initState() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	switch {
	case c.assoc == 4:
		for s := range c.rank {
			c.rank[s] = 0xE4 // order 0,1,2,3: way 3 is the first victim
		}
	case c.assoc > 2:
		for s := 0; s < len(c.rank); s += c.assoc {
			for i := 0; i < c.assoc; i++ {
				c.rank[s+i] = uint8(i)
			}
		}
	}
}

// MustNew is New for static configurations, panicking on invalid geometry.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.meta)
	clear(c.rank)
	c.initState()
	c.stats = Stats{}
}

// Access performs one read (write=false) or write (write=true) at the
// given byte address and reports whether it hit. Writes allocate on miss
// and mark the line dirty; evicting a dirty line counts a writeback.
func (c *Cache) Access(addr uint32, write bool) bool {
	c.stats.Accesses++
	var dirty uint8
	if write {
		dirty = stDirty
	}
	blk := addr >> c.blkShift
	var hit bool
	switch c.assoc {
	case 1:
		hit = c.probe1(blk, dirty)
	case 2:
		hit = c.probe2(blk, dirty)
	case 4:
		hit = c.probe4(blk, dirty)
	default:
		hit = c.probeN(blk, dirty)
	}
	if !hit {
		c.stats.Misses++
	}
	return hit
}

func (c *Cache) probe1(blk uint32, dirty uint8) bool {
	s := blk & c.setMask
	if c.tags[s] == blk {
		c.meta[s] |= dirty
		return true
	}
	if c.meta[s] != 0 {
		c.stats.Writebacks++
	}
	c.tags[s] = blk
	c.meta[s] = dirty
	return false
}

func (c *Cache) probe2(blk uint32, dirty uint8) bool {
	s := blk & c.setMask
	b := s << 1
	if c.tags[b] == blk {
		c.meta[b] |= dirty
		c.rank[s] = 0
		return true
	}
	if c.tags[b+1] == blk {
		c.meta[b+1] |= dirty
		c.rank[s] = 1
		return true
	}
	lru := c.rank[s] ^ 1
	v := b + uint32(lru)
	if c.meta[v] != 0 {
		c.stats.Writebacks++
	}
	c.tags[v] = blk
	c.meta[v] = dirty
	c.rank[s] = lru
	return false
}

func (c *Cache) probe4(blk uint32, dirty uint8) bool {
	s := blk & c.setMask
	b := s << 2
	tg := c.tags[b : b+4 : b+4]
	ord := c.rank[s]
	var hi uint32
	switch blk {
	case tg[0]:
		hi = 0
	case tg[1]:
		hi = 1
	case tg[2]:
		hi = 2
	case tg[3]:
		hi = 3
	default:
		v := uint32(ord >> 6)
		if c.meta[b+v] != 0 {
			c.stats.Writebacks++
		}
		tg[v] = blk
		c.meta[b+v] = dirty
		c.rank[s] = ord<<2 | uint8(v)
		return false
	}
	c.meta[b+hi] |= dirty
	c.rank[s] = promo4[uint32(ord)<<2|hi]
	return true
}

func (c *Cache) probeN(blk uint32, dirty uint8) bool {
	a := c.assoc
	b := int(blk&c.setMask) * a
	tg := c.tags[b : b+a]
	mt := c.meta[b : b+a]
	rk := c.rank[b : b+a]
	for i := range tg {
		if tg[i] == blk {
			mt[i] |= dirty
			r := rk[i]
			for j := range rk {
				if rk[j] < r {
					rk[j]++
				}
			}
			rk[i] = 0
			return true
		}
	}
	last := uint8(a - 1)
	v := 0
	for j := 1; j < a; j++ {
		if rk[j] == last {
			v = j
		}
	}
	if mt[v] != 0 {
		c.stats.Writebacks++
	}
	tg[v] = blk
	mt[v] = dirty
	for j := range rk {
		rk[j]++
	}
	rk[v] = 0
	return false
}

// AccessBatch streams a block of packed references through the cache.
// Each reference is a word-aligned byte address with the write flag in
// bit 0 (see RefWrite); outcomes accumulate into Stats exactly as the
// equivalent sequence of Access calls would. The per-associativity inner
// loops keep tags, state bytes and statistics in registers, so this is
// the replay engine's hot path.
func (c *Cache) AccessBatch(refs []uint32) {
	switch c.assoc {
	case 1:
		c.batch1(refs)
	case 2:
		c.batch2(refs)
	case 4:
		c.batch4(refs)
	default:
		c.batchN(refs)
	}
}

func (c *Cache) batch1(refs []uint32) {
	tags, meta := c.tags, c.meta
	shift, mask := c.blkShift, c.setMask
	var miss, wb uint64
	for _, w := range refs {
		dirty := uint8(w&1) << 1
		blk := (w &^ 3) >> shift
		s := blk & mask
		if tags[s] == blk {
			meta[s] |= dirty
			continue
		}
		miss++
		if meta[s] != 0 {
			wb++
		}
		tags[s] = blk
		meta[s] = dirty
	}
	c.stats.Accesses += uint64(len(refs))
	c.stats.Misses += miss
	c.stats.Writebacks += wb
}

func (c *Cache) batch2(refs []uint32) {
	tags, meta, rank := c.tags, c.meta, c.rank
	shift, mask := c.blkShift, c.setMask
	var miss, wb uint64
	for _, w := range refs {
		dirty := uint8(w&1) << 1
		blk := (w &^ 3) >> shift
		s := blk & mask
		b := s << 1
		// Probe the most recently used way first: the common case needs
		// no rank store.
		m := uint32(rank[s])
		if tags[b+m] == blk {
			meta[b+m] |= dirty
			continue
		}
		lru := m ^ 1
		if tags[b+lru] == blk {
			meta[b+lru] |= dirty
			rank[s] = uint8(lru)
			continue
		}
		miss++
		v := b + lru
		if meta[v] != 0 {
			wb++
		}
		tags[v] = blk
		meta[v] = dirty
		rank[s] = uint8(lru)
	}
	c.stats.Accesses += uint64(len(refs))
	c.stats.Misses += miss
	c.stats.Writebacks += wb
}

func (c *Cache) batch4(refs []uint32) {
	tags, meta, rank := c.tags, c.meta, c.rank
	shift, mask := c.blkShift, c.setMask
	var miss, wb uint64
	for _, w := range refs {
		dirty := uint8(w&1) << 1
		blk := (w &^ 3) >> shift
		s := blk & mask
		b := s << 2
		tg := tags[b : b+4 : b+4]
		ord := rank[s]
		// Probe the most recently used way first: the common case needs
		// no rank store (its promotion is the identity).
		m0 := uint32(ord) & 3
		if tg[m0] == blk {
			meta[b+m0] |= dirty
			continue
		}
		var hi uint32
		switch blk {
		case tg[0]:
			hi = 0
		case tg[1]:
			hi = 1
		case tg[2]:
			hi = 2
		case tg[3]:
			hi = 3
		default:
			miss++
			v := uint32(ord >> 6)
			if meta[b+v] != 0 {
				wb++
			}
			tg[v] = blk
			meta[b+v] = dirty
			rank[s] = ord<<2 | uint8(v)
			continue
		}
		meta[b+hi] |= dirty
		rank[s] = promo4[uint32(ord)<<2|hi]
	}
	c.stats.Accesses += uint64(len(refs))
	c.stats.Misses += miss
	c.stats.Writebacks += wb
}

func (c *Cache) batchN(refs []uint32) {
	shift := c.blkShift
	var miss uint64
	for _, w := range refs {
		dirty := uint8(w&1) << 1
		blk := (w &^ 3) >> shift
		if !c.probeN(blk, dirty) {
			miss++
		}
	}
	c.stats.Accesses += uint64(len(refs))
	c.stats.Misses += miss
}

// AccessBatchFetch streams a block of word-aligned read addresses (no
// flag bits) through the cache: the replay engine's instruction-fetch
// side. It assumes the cache is never written — fetches cannot dirty a
// line, so when every access to the cache comes through this path no
// line is ever dirty and the kernels skip the dirty-byte bookkeeping
// (and writeback counting, which cannot trigger) entirely. Statistics
// match the equivalent sequence of Access(addr, false) calls.
func (c *Cache) AccessBatchFetch(refs []uint32) {
	switch c.assoc {
	case 1:
		c.batch1F(refs)
	case 2:
		c.batch2F(refs)
	case 4:
		c.batch4F(refs)
	default:
		c.batchN(refs)
	}
}

func (c *Cache) batch1F(refs []uint32) {
	tags := c.tags
	shift, mask := c.blkShift, c.setMask
	var miss uint64
	for _, w := range refs {
		blk := w >> shift
		s := blk & mask
		if tags[s] != blk {
			miss++
			tags[s] = blk
		}
	}
	c.stats.Accesses += uint64(len(refs))
	c.stats.Misses += miss
}

func (c *Cache) batch2F(refs []uint32) {
	tags, rank := c.tags, c.rank
	shift, mask := c.blkShift, c.setMask
	var miss uint64
	for _, w := range refs {
		blk := w >> shift
		s := blk & mask
		b := s << 1
		m := uint32(rank[s])
		if tags[b+m] == blk {
			continue
		}
		lru := m ^ 1
		if tags[b+lru] == blk {
			rank[s] = uint8(lru)
			continue
		}
		miss++
		tags[b+lru] = blk
		rank[s] = uint8(lru)
	}
	c.stats.Accesses += uint64(len(refs))
	c.stats.Misses += miss
}

func (c *Cache) batch4F(refs []uint32) {
	tags, rank := c.tags, c.rank
	shift, mask := c.blkShift, c.setMask
	var miss uint64
	for _, w := range refs {
		blk := w >> shift
		s := blk & mask
		b := s << 2
		tg := tags[b : b+4 : b+4]
		ord := rank[s]
		if tg[uint32(ord)&3] == blk {
			continue
		}
		var hi uint32
		switch blk {
		case tg[0]:
			hi = 0
		case tg[1]:
			hi = 1
		case tg[2]:
			hi = 2
		case tg[3]:
			hi = 3
		default:
			miss++
			v := uint32(ord >> 6)
			tg[v] = blk
			rank[s] = ord<<2 | uint8(v)
			continue
		}
		rank[s] = promo4[uint32(ord)<<2|hi]
	}
	c.stats.Accesses += uint64(len(refs))
	c.stats.Misses += miss
}

// Contains reports whether addr currently resides in the cache, without
// disturbing LRU state or statistics. Intended for tests.
func (c *Cache) Contains(addr uint32) bool {
	blk := addr >> c.blkShift
	set := int(blk&c.setMask) * c.assoc
	for i := set; i < set+c.assoc; i++ {
		if c.tags[i] == blk {
			return true
		}
	}
	return false
}

// Bank drives a set of caches with one reference stream and strips the
// references that cannot change any member (Puzak's trace stripping).
// Members are grouped by block size, and within a group each distinct
// set count is one stage, in ascending order: a direct-mapped filter
// with that many sets that remembers the block each set last saw. A
// stage drops every reference to the block its set last saw, compacting
// the previous stage's survivors in place, then its members consume the
// survivors and count each dropped reference as an access that hit.
//
// The result is exact. A member at or after the stage has at least as
// many sets, and set counts are powers of two, so the member's set lies
// inside the filter's: no other block of it has been referenced since,
// and the dropped reference is a most-recently-used hit that leaves the
// LRU order of every kernel unchanged (Mattson et al.'s set
// refinement). A dropped write ORs its flag into the set's last
// surviving reference, which dirties the same line earlier than the
// write would have, while no other block of the set can evict it; when
// that survivor was in an earlier batch and is already consumed, the
// write survives instead.
type Bank struct {
	stages []stripStage // by block size, then set count
	buf    []uint32     // survivors, when several block sizes share a batch
}

// stripStage is one filter and the members with its block size and sets.
type stripStage struct {
	shift, mask uint32
	last        []uint32 // block each filter set last saw
	pos         []int    // data batches: index of each set's last survivor
	seen        int      // survivors emitted in earlier batches
	caches      []*Cache
}

// BankOf builds a stripping bank over existing caches, which keep their
// own statistics; while it is in use, drive them only through the bank.
func BankOf(caches ...*Cache) *Bank {
	cs := slices.Clone(caches)
	slices.SortStableFunc(cs, func(x, y *Cache) int {
		return cmp.Or(cmp.Compare(x.blkShift, y.blkShift), cmp.Compare(x.setMask, y.setMask))
	})
	b := &Bank{}
	for _, c := range cs {
		if n := len(b.stages); n == 0 || b.stages[n-1].shift != c.blkShift || b.stages[n-1].mask != c.setMask {
			last := make([]uint32, c.setMask+1)
			for i := range last {
				last[i] = invalidTag
			}
			b.stages = append(b.stages, stripStage{shift: c.blkShift, mask: c.setMask, last: last})
		}
		st := &b.stages[len(b.stages)-1]
		st.caches = append(st.caches, c)
	}
	return b
}

// AccessBatch streams one block of packed references (write flag in bit
// 0) through every member, as Cache.AccessBatch would. The bank
// overwrites refs.
func (b *Bank) AccessBatch(refs []uint32) { b.access(refs, false) }

// AccessBatchFetch streams one block of read-only addresses through
// every member, as Cache.AccessBatchFetch would. The bank overwrites
// refs.
func (b *Bank) AccessBatchFetch(refs []uint32) { b.access(refs, true) }

func (b *Bank) access(refs []uint32, fetch bool) {
	dst := refs
	if n := len(b.stages); n > 0 && b.stages[0].shift != b.stages[n-1].shift {
		// Each block size starts from the whole batch, so keep it intact.
		b.buf = slices.Grow(b.buf[:0], len(refs))[:len(refs)]
		dst = b.buf
	}
	live := refs
	for i := range b.stages {
		s := &b.stages[i]
		if i > 0 && s.shift != b.stages[i-1].shift {
			live = refs
		}
		if fetch {
			live = s.stripFetch(live, dst)
		} else {
			live = s.stripData(live, dst)
		}
		hits := uint64(len(refs) - len(live))
		for _, c := range s.caches {
			if fetch {
				c.AccessBatchFetch(live)
			} else {
				c.AccessBatch(live)
			}
			c.stats.Accesses += hits
		}
	}
}

// stripFetch writes to dst the references in src that miss the filter
// and returns them; dst may be src itself.
func (s *stripStage) stripFetch(src, dst []uint32) []uint32 {
	last, shift, mask := s.last, s.shift, s.mask
	n := 0
	for _, w := range src {
		blk := w >> shift
		if f := blk & mask; last[f] != blk {
			last[f] = blk
			dst[n] = w
			n++
		}
	}
	return dst[:n]
}

// stripData is stripFetch for packed data references: a write that hits
// the filter folds its flag into the set's last survivor in dst when
// that survivor is from this batch, and survives otherwise. Positions
// count survivors over the bank's life, so advancing seen past a batch
// resets every one of them.
func (s *stripStage) stripData(src, dst []uint32) []uint32 {
	if s.pos == nil {
		s.pos = make([]int, len(s.last))
		for i := range s.pos {
			s.pos[i] = -1
		}
	}
	last, pos, shift, mask := s.last, s.pos, s.shift, s.mask
	base, n := s.seen, 0
	for _, w := range src {
		blk := w >> shift
		f := blk & mask
		if last[f] == blk {
			if w&RefWrite == 0 {
				continue
			}
			if p := pos[f] - base; p >= 0 {
				dst[p] |= RefWrite
				continue
			}
		}
		last[f] = blk
		pos[f] = base + n
		dst[n] = w
		n++
	}
	s.seen = base + n
	return dst[:n]
}
