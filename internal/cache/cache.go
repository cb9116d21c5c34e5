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
// The state layout is struct-of-arrays: a flat set-indexed tag array
// (invalid ways hold an unreachable sentinel tag, so the hit probe is a
// bare compare), one dirty byte per way, and compact LRU rank bytes (a
// packed recency-order byte per 4-way set, promoted by table lookup; a
// permutation of 0..assoc-1 per set otherwise) instead of 64-bit
// timestamps and a victim scan. Access dispatches to a
// per-associativity specialization chosen at construction.
//
// A Bank drives many fresh caches with one stream of packed references,
// the replay engine's hot path. Caches of one block size and set count
// share one LRU recency stack per set, as deep as the most associative
// of them, so one probe per reference decides all of them (Mattson et
// al.'s LRU inclusion). A reference on top of its set's stack is a hit
// in every cache of that block size with at least as many sets, so
// later stacks never see it (Puzak's trace stripping). The caller may
// strip the stream before the bank sees it: a reference to the block,
// at the bank's smallest block size, of the reference before it is a
// hit in every member, and a batch counts the references it stands for,
// so dropped ones still count in Accesses. Every statistic stays exact;
// see Bank.
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
// one 4-byte machine word (the access granularity), and associativity a
// power of two (so set counts are too) of at most 256 (the LRU rank
// bytes' range).
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.SizeBytes&(c.SizeBytes-1) != 0:
		return fmt.Errorf("cache: size %d not a positive power of two", c.SizeBytes)
	case c.BlockBytes <= 0 || c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("cache: block size %d not a positive power of two", c.BlockBytes)
	case c.BlockBytes < 4:
		return fmt.Errorf("cache: block size %d below the 4-byte word", c.BlockBytes)
	case c.Assoc <= 0 || c.Assoc&(c.Assoc-1) != 0:
		return fmt.Errorf("cache: associativity %d not a positive power of two", c.Assoc)
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

// Bank drives a set of fresh caches with one reference stream and holds
// their contents itself: members receive statistics only. Members are
// grouped by block size, and within a group each distinct set count is
// one stage, in ascending order. A stage keeps one LRU recency stack
// per set, as deep as its most associative member and at least four
// deep. By LRU inclusion a member with a ways holds its set's top a
// entries, so a reference found at rank r misses exactly the members
// with a <= r, and one probe serves every member (Hill and Smith's
// all-associativity simulation). The stage counts references by the
// rank they were found at, and after each batch every member reads its
// misses from those counts.
//
// A reference on top of its set's stack is a most-recently-used hit in
// every member at or after the stage: such a member has at least as
// many sets, and set counts are powers of two, so its set lies inside
// the stage's and no other block of it has been referenced since
// (Mattson et al.'s set refinement). The stage drops it, compacting the
// previous stage's survivors in place, so later stages never probe it
// (Puzak's trace stripping). A dropped write ORs its flag into the
// set's last surviving reference, which dirties the same line earlier
// than the write would have, while no other block of the set can evict
// it; when that survivor was in an earlier batch and is already
// consumed, the write survives instead.
//
// A caller may drop a stream's references before batching them, on
// the same ground one set wide: a reference to the block, at
// BlockShift, of the stream's reference just before it is a
// most-recently-used hit in every member. A dropped write ORs its flag
// into the last reference of the caller's current batch, which by
// induction is the same block, or survives when that batch is empty.
// The batch's count includes the dropped references, so each member's
// Accesses stays exact, and misses and writebacks do not change.
//
// Writebacks need no dirty bit per member. Each stack entry keeps the
// highest rank it was found at since it was last written, or a value
// no member reaches while it has not been written since it entered the
// stack. A member with a ways evicts the entry at rank a-1 whenever a
// reference misses it, and that entry is dirty in the member iff its
// value is below a.
type Bank struct {
	stages []stage  // by block size, then set count
	buf    []uint32 // survivors, when several block sizes share a batch
}

// stage is one block size and set count: a recency stack per set, the
// rank counts of the current batch, and the members that share them.
type stage struct {
	shift, mask uint32
	depth       int
	sets        []set4    // depth 4
	tags        []uint32  // deeper: depth tags per set, most recent first
	vals        []uint16  // deeper: each entry's value (see Bank)
	pos         []int     // index of each set's last survivor
	seen        int       // survivors emitted in earlier batches
	hist        []uint64  // references by the rank they were found at; depth = absent
	wb          [9]uint64 // writebacks by log2 of the member's ways
	caches      []*Cache
}

// set4 is one set's recency stack four deep: tags most recent first,
// and the entries' values one byte each, rank 0 in the low byte.
type set4 struct {
	tag  [4]uint32
	vals uint32
}

// BankOf builds a bank over fresh caches. It returns an error for a
// cache that has seen an access, since the bank starts empty.
func BankOf(caches ...*Cache) (*Bank, error) {
	cs := slices.Clone(caches)
	slices.SortStableFunc(cs, func(x, y *Cache) int {
		return cmp.Or(cmp.Compare(x.blkShift, y.blkShift), cmp.Compare(x.setMask, y.setMask))
	})
	b := &Bank{}
	for _, c := range cs {
		if c.stats.Accesses != 0 {
			return nil, fmt.Errorf("cache: %v has seen %d accesses; a bank takes fresh caches", c.cfg, c.stats.Accesses)
		}
		if n := len(b.stages); n == 0 || b.stages[n-1].shift != c.blkShift || b.stages[n-1].mask != c.setMask {
			b.stages = append(b.stages, stage{shift: c.blkShift, mask: c.setMask, depth: 4})
		}
		st := &b.stages[len(b.stages)-1]
		st.caches = append(st.caches, c)
		st.depth = max(st.depth, c.assoc)
	}
	for i := range b.stages {
		s := &b.stages[i]
		n := int(s.mask) + 1
		s.pos = make([]int, n)
		for j := range s.pos {
			s.pos[j] = -1
		}
		s.hist = make([]uint64, s.depth+1)
		if s.depth == 4 {
			s.sets = make([]set4, n)
			for j := range s.sets {
				s.sets[j] = set4{tag: [4]uint32{invalidTag, invalidTag, invalidTag, invalidTag}, vals: ^uint32(0)}
			}
			continue
		}
		s.tags = make([]uint32, n*s.depth)
		s.vals = make([]uint16, n*s.depth)
		for j := range s.tags {
			s.tags[j], s.vals[j] = invalidTag, ^uint16(0)
		}
	}
	return b, nil
}

// BlockShift returns log2 of the bank's smallest member block size, the
// granularity at which a caller may strip a stream (see Bank); 2, the
// word, for a bank with no members.
func (b *Bank) BlockShift() uint32 {
	if len(b.stages) == 0 {
		return 2
	}
	return b.stages[0].shift
}

// AccessBatch streams one block of packed references (write flag in bit
// 0, see RefWrite) through every member, as the equivalent sequence of
// Access calls would. The batch stands for n >= len(refs) references of
// the stream: the n-len(refs) others were stripped by the caller (see
// Bank) and count as accesses that hit. The bank overwrites refs.
func (b *Bank) AccessBatch(refs []uint32, n int) { b.access(refs, n, false) }

// AccessBatchFetch is AccessBatch for a read-only stream of word-aligned
// addresses: the replay engine's instruction-fetch side, whose members
// never see a write.
func (b *Bank) AccessBatchFetch(refs []uint32, n int) { b.access(refs, n, true) }

func (b *Bank) access(refs []uint32, n int, fetch bool) {
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
		switch {
		case s.sets == nil:
			live = s.probeN(live, dst)
		case fetch:
			live = s.probe4F(live, dst)
		default:
			live = s.probe4(live, dst)
		}
		for _, c := range s.caches {
			c.stats.Accesses += uint64(n)
			for _, h := range s.hist[c.assoc:] {
				c.stats.Misses += h
			}
			c.stats.Writebacks += s.wb[bits.TrailingZeros(uint(c.assoc))]
		}
		clear(s.hist)
		s.wb = [9]uint64{}
	}
}

// probe4 streams src through a stage four deep, counting ranks and
// writebacks, and writes the survivors to dst, which may be src itself.
// Positions count survivors over the bank's life, so advancing seen
// past a batch resets every one of them.
func (s *stage) probe4(src, dst []uint32) []uint32 {
	sets, pos, shift, mask := s.sets, s.pos, s.shift, s.mask
	var hist [5]uint64
	var wb1, wb2, wb4 uint64
	base, n := s.seen, 0
	for _, w := range src {
		blk := w >> shift
		f := blk & mask
		st := &sets[f]
		if st.tag[0] == blk {
			if w&RefWrite == 0 {
				continue
			}
			st.vals &^= 0xFF
			if p := pos[f] - base; p >= 0 {
				dst[p] |= RefWrite
				continue
			}
		} else {
			// Found at rank r, or absent (r = 4); m covers the ranks
			// below r, which move back one place.
			t := &st.tag
			r, m := uint32(4), ^uint32(0)
			switch blk {
			case t[1]:
				r, m = 1, 0xFF
			case t[2]:
				r, m, t[2] = 2, 0xFFFF, t[1]
			default:
				if blk == t[3] {
					r, m = 3, 0xFFFFFF
				}
				t[3], t[2] = t[2], t[1]
			}
			t[1], t[0] = t[0], blk
			hist[r]++
			// Each member of at most r ways misses and evicts its entry
			// at rank ways-1, dirty there iff the entry's value is below
			// ways. Bit 31 of a difference is its sign, so no branch.
			v := st.vals
			wb1 += uint64((v&0xFF - 1) >> 31)
			wb2 += uint64((v>>8&0xFF - 2) & (1 - r) >> 31)
			wb4 += uint64((v>>24 - 4) >> 31 & (r >> 2))
			// A read keeps the highest rank since the last write; absent,
			// any value of at least 4 is clean.
			nv := max(v>>(8*r&31)&0xFF, r)
			if w&RefWrite != 0 {
				nv = 0
			}
			st.vals = v&^(m<<8|m) | (v&m)<<8 | nv
		}
		pos[f] = base + n
		dst[n] = w
		n++
	}
	s.seen = base + n
	copy(s.hist, hist[:])
	s.wb[0], s.wb[1], s.wb[2] = wb1, wb2, wb4
	return dst[:n]
}

// probe4F is probe4 for a read-only stream: no line is dirty and no
// write folds, so it keeps no values or positions.
func (s *stage) probe4F(src, dst []uint32) []uint32 {
	sets, shift, mask := s.sets, s.shift, s.mask
	var hist [5]uint64
	n := 0
	for _, w := range src {
		blk := w >> shift
		t := &sets[blk&mask].tag
		if t[0] == blk {
			continue
		}
		r := uint32(4)
		switch blk {
		case t[1]:
			r = 1
		case t[2]:
			r, t[2] = 2, t[1]
		default:
			if blk == t[3] {
				r = 3
			}
			t[3], t[2] = t[2], t[1]
		}
		t[1], t[0] = t[0], blk
		hist[r]++
		dst[n] = w
		n++
	}
	copy(s.hist, hist[:])
	return dst[:n]
}

// probeN is probe4 for deeper stacks, read-only streams included: each
// entry's value is a uint16, since a 256-deep stack finds ranks up to
// 255 and absent is 256.
func (s *stage) probeN(src, dst []uint32) []uint32 {
	tags, vals, pos, hist := s.tags, s.vals, s.pos, s.hist
	shift, mask, d := s.shift, s.mask, s.depth
	base, n := s.seen, 0
	for _, w := range src {
		blk := w >> shift
		f := int(blk & mask)
		if b := f * d; tags[b] == blk {
			if w&RefWrite == 0 {
				continue
			}
			vals[b] = 0
			if p := pos[f] - base; p >= 0 {
				dst[p] |= RefWrite
				continue
			}
		} else {
			tg, vs := tags[b:b+d], vals[b:b+d]
			r := 1
			for r < d && tg[r] != blk {
				r++
			}
			hist[r]++
			for k, a := 0, 1; a <= r; k, a = k+1, a*2 {
				s.wb[k] += uint64(int(vs[a-1])-a) >> 63 // dirty: below a
			}
			nv := uint16(r)
			if r < d {
				nv = max(vs[r], nv)
			}
			if w&RefWrite != 0 {
				nv = 0
			}
			for i := min(r, d-1); i > 0; i-- {
				tg[i], vs[i] = tg[i-1], vs[i-1]
			}
			tg[0], vs[0] = blk, nv
		}
		pos[f] = base + n
		dst[n] = w
		n++
	}
	s.seen = base + n
	return dst[:n]
}
