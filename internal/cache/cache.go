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
// A Cache is a geometry and the statistics a Bank counts for it; the
// bank holds the contents. A Bank drives many fresh caches with one
// stream of packed references, the replay engine's hot path. Caches of
// one block size and set count share one LRU recency stack per set, as
// deep as the most associative of them, so one probe per reference
// decides all of them (Mattson et al.'s LRU inclusion). A reference on
// top of its set's stack is a hit in every cache of that block size
// with at least as many sets, so later stacks never see it (Puzak's
// trace stripping). The caller may strip the stream before the bank
// sees it: a reference to the block, at the bank's smallest block size,
// of the reference before it is a hit in every member, and a batch
// counts the references it stands for, so dropped ones still count in
// Accesses. Every statistic stays exact; see Bank. A bank built with
// AttributingBankOf also splits each member's misses by reference kind
// and §3.1 class.
package cache

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"jmtam/internal/mem"
)

// Config describes one cache geometry.
type Config struct {
	SizeBytes  int // total capacity
	BlockBytes int // line size
	Assoc      int // ways per set (1 = direct-mapped)
}

// Validate checks the geometry for consistency. Blocks must be at least
// one 4-byte machine word (the access granularity), and associativity a
// power of two (so set counts are too) of at most 256 (a bank counts
// writebacks in wb [9]uint64, indexed by log2 of the ways).
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

// invalidTag marks a bank's stack entry, or a Victim's way, that holds
// no line. Block sizes are at least 4 bytes, so block numbers never
// exceed 2^30-1 and can never equal it.
const invalidTag = ^uint32(0)

// Write flag carried in bit 0 of a packed batch reference (addresses are
// word-aligned, so bits 0-1 of the byte address are free). Bit 1 holds
// the reference's own kind, set for a write, which only an attributing
// bank reads: stripping ORs a dropped write's flag into bit 0 of an
// earlier reference to its block, and when that reference is a read
// that misses, the miss is still a read miss.
const RefWrite = uint32(1)

// Cache is one cache: its geometry and the statistics a Bank counts for
// it. Construct with New; the bank that drives it holds its contents.
type Cache struct {
	cfg      Config
	setMask  uint32
	blkShift uint32
	stats    Stats
	// byKind holds misses by kind (0 read or fetch, 1 write) and §3.1
	// class, counted by an attributing bank only.
	byKind [2][mem.NumClasses]uint64
}

// New builds a cache for the given geometry.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cache{
		cfg:      cfg,
		setMask:  uint32(cfg.SizeBytes/(cfg.BlockBytes*cfg.Assoc) - 1),
		blkShift: uint32(bits.TrailingZeros(uint(cfg.BlockBytes))),
	}, nil
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

// ClassMisses returns the cache's misses by the §3.1 class of the
// missing reference's address, reads (fetches, in an instruction cache)
// and writes apart. Only a bank built with AttributingBankOf counts
// them; under any other they stay zero.
func (c *Cache) ClassMisses() (reads, writes [mem.NumClasses]uint64) {
	return c.byKind[0], c.byKind[1]
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
//
// A stage four deep, the paper grid's every stage, keeps each set in
// one 32-byte set4: the four tags, their values and the set's last
// survivor, so a probe reads one place. Below the top, a real stream's
// ranks do not repeat, so a switch on them mispredicts. The tags of a
// stack are distinct, so at most one of the three below the top
// matches: three equality bits give the rank, and masks move the
// entries above it back one place, with no branch. Only the test for
// the top stays a branch (see probe4).
//
// An attributing bank (AttributingBankOf) also splits each member's
// misses by category: the kind of the missing reference, read or
// write, which it reads from bit 1 (see RefWrite), and the §3.1 class
// of its address. A reference that misses a member reaches the
// member's stage as itself, since every dropped reference hits every
// member it would have reached, so each stage keeps one row of rank
// counts per category, and a member with a ways sums each row's counts
// from rank a up. Such a bank runs every stage on the generic kernel.
type Bank struct {
	stages []stage  // by block size, then set count
	buf    []uint32 // survivors, when several block sizes share a batch
}

// stage is one block size and set count: a recency stack per set, the
// rank counts of the current batch, and the members that share them.
type stage struct {
	shift, mask uint32
	depth       int
	sets        []set4    // depth 4, positions included
	tags        []uint32  // deeper: depth tags per set, most recent first
	vals        []uint16  // deeper: each entry's value (see Bank)
	pos         []int     // deeper: index of each set's last survivor
	seen        int       // survivors emitted in earlier batches
	hist        []uint64  // references by category, then by the rank they were found at; depth = absent
	attr        bool      // one category per kind and class; otherwise one in all
	wb          [9]uint64 // writebacks by log2 of the member's ways
	caches      []*Cache
}

// set4 is one set's recency stack four deep: tags most recent first,
// the entries' values one byte each, rank 0 in the low byte, and the
// index of the set's last survivor, counted like seen (see probe4).
type set4 struct {
	tag  [4]uint32
	vals uint32
	pos  int
}

// BankOf builds a bank over fresh caches. It returns an error for a
// cache that has seen an access, since the bank starts empty.
func BankOf(caches ...*Cache) (*Bank, error) { return bankOf(caches, false) }

// AttributingBankOf is BankOf for a bank that also counts each member's
// misses by kind and §3.1 class (see Bank and Cache.ClassMisses).
func AttributingBankOf(caches ...*Cache) (*Bank, error) { return bankOf(caches, true) }

func bankOf(caches []*Cache, attr bool) (*Bank, error) {
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
			b.stages = append(b.stages, stage{shift: c.blkShift, mask: c.setMask, depth: 4, attr: attr})
		}
		st := &b.stages[len(b.stages)-1]
		st.caches = append(st.caches, c)
		st.depth = max(st.depth, c.cfg.Assoc)
	}
	for i := range b.stages {
		s := &b.stages[i]
		n := int(s.mask) + 1
		rows := 1
		if attr {
			rows = 2 * int(mem.NumClasses)
		}
		s.hist = make([]uint64, rows*(s.depth+1))
		if s.depth == 4 && !attr {
			s.sets = make([]set4, n)
			for j := range s.sets {
				s.sets[j] = set4{tag: [4]uint32{invalidTag, invalidTag, invalidTag, invalidTag}, vals: ^uint32(0), pos: -1}
			}
			continue
		}
		s.tags = make([]uint32, n*s.depth)
		s.vals = make([]uint16, n*s.depth)
		for j := range s.tags {
			s.tags[j], s.vals[j] = invalidTag, ^uint16(0)
		}
		s.pos = make([]int, n)
		for j := range s.pos {
			s.pos[j] = -1
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
// 0, and for an attributing bank the reference's kind in bit 1; see
// RefWrite) through every member, counting each member's statistics
// exactly as an LRU cache of its geometry, probed with the references
// one by one, would. The batch stands for n >= len(refs) references of
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
			a := c.cfg.Assoc
			c.stats.Accesses += uint64(n)
			for k, row := 0, s.hist; len(row) > 0; k, row = k+1, row[s.depth+1:] {
				var m uint64
				for _, h := range row[a : s.depth+1] {
					m += h
				}
				c.stats.Misses += m
				if s.attr {
					c.byKind[k/int(mem.NumClasses)][k%int(mem.NumClasses)] += m
				}
			}
			c.stats.Writebacks += s.wb[bits.TrailingZeros(uint(a))]
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
	sets, shift, mask := s.sets, s.shift, s.mask
	// Ranks 0-4 in an array of eight, so r&7 needs no bounds check, and
	// the 1-, 2- and 4-way members' writebacks in memory: the loop has
	// no registers to spare for them.
	var hist [8]uint64
	var wb [3]uint64
	base, n := s.seen, 0
	for _, w := range src {
		blk := w >> (shift & 31) // shift < 32; the mask spares the check
		st := &sets[blk&mask]
		// The top-of-stack test stays a branch. Without it every
		// reference would write its set, and the next reference to the
		// same set would wait on that store.
		if st.tag[0] == blk {
			if w&RefWrite == 0 {
				continue
			}
			st.vals &^= 0xFF
			if p := st.pos - base; p >= 0 {
				dst[p] |= RefWrite
				continue
			}
		} else {
			// At most one of t1..t3 is blk, so their equality bits (e is
			// 1 iff the tag is blk) give the rank r it was found at, 4 if
			// absent. The entries above it move back one place: t0
			// always, t1 unless r is 1 and t2 unless r is 1 or 2, which
			// e1-1 and (e1|e2)-1 mask. m covers the values of ranks
			// below r.
			t1, t2, t3 := st.tag[1], st.tag[2], st.tag[3]
			e1 := uint32((uint64(t1^blk) - 1) >> 63)
			e2 := uint32((uint64(t2^blk) - 1) >> 63)
			e3 := uint32((uint64(t3^blk) - 1) >> 63)
			r := 4 - 3*e1 - 2*e2 - e3
			st.tag = [4]uint32{blk, st.tag[0], t2 ^ (t2^t1)&(e1-1), t3 ^ (t3^t2)&((e1|e2)-1)}
			m := uint32(uint64(1)<<(8*r&63) - 1)
			hist[r&7]++
			// Each member of at most r ways misses and evicts its entry
			// at rank ways-1, dirty there iff the entry's value is below
			// ways. Bit 31 of a difference is its sign, so no branch.
			v := st.vals
			wb[0] += uint64((v&0xFF - 1) >> 31)
			wb[1] += uint64((v>>8&0xFF - 2) & (1 - r) >> 31)
			wb[2] += uint64((v>>24 - 4) >> 31 & (r >> 2))
			// A read keeps the highest rank since the last write, and a
			// write clears it; absent, any value of at least 4 is clean.
			nv := max(v>>(8*r&31)&0xFF, r) & (w&RefWrite - 1)
			st.vals = v&^(m<<8|m) | (v&m)<<8 | nv
		}
		st.pos = base + n
		dst[n] = w
		n++
	}
	s.seen = base + n
	copy(s.hist, hist[:5])
	s.wb[0], s.wb[1], s.wb[2] = wb[0], wb[1], wb[2]
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

// probeN is probe4 for deeper stacks and for attributing stages of any
// depth, read-only streams included: each entry's value is a uint16,
// since a 256-deep stack finds ranks up to 255 and absent is 256. An
// attributing stage counts each reference it finds in the rank row of
// its category.
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
			row := 0
			if s.attr {
				row = (int(w>>1&1)*int(mem.NumClasses) + int(mem.Classify(w&^3))) * (d + 1)
			}
			hist[row+r]++
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
