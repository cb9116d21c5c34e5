package trace

import (
	"context"
	"io"

	"jmtam/internal/cache"
	"jmtam/internal/mem"
	"jmtam/internal/obs"
)

// Source yields a recorded reference stream in chunks, in order. Next
// returns the next chunk as packed trace words, and io.EOF after the
// last; the hooked replay path reads it. split feeds the next chunk
// straight into the unhooked kernel's fetch and data streams, and also
// returns io.EOF after the last. A *Reader is a Source over compacted
// bytes, and Recording.Chunks returns one over the packed in-memory
// form, so the replay kernel consumes either without caring which.
type Source interface {
	Next() ([]uint32, error)
	split(*splitter) error
}

// cursor walks a packed recording's chunk list.
type cursor struct{ chunks [][]uint32 }

func (c *cursor) Next() ([]uint32, error) {
	if len(c.chunks) == 0 {
		return nil, io.EOF
	}
	ch := c.chunks[0]
	c.chunks = c.chunks[1:]
	return ch, nil
}

func (c *cursor) split(sp *splitter) error {
	ch, err := c.Next()
	for _, w := range ch {
		if w>>kindShift == uint32(KindFetch) {
			sp.fetch.add(w&addrMask, 0)
		} else {
			// KindWrite is 2 and KindRead 1, so the kind's high bit is
			// the write flag.
			sp.data.add(w&addrMask, w>>(kindShift+1))
		}
	}
	return err
}

// Chunks returns a Source over the recording's packed chunks. The
// recording must not grow while the Source is in use.
func (r *Recording) Chunks() Source { return &cursor{chunks: r.chunks()} }

// replayBlockWords sizes each of the unhooked kernel's two stream
// buffers: 4K surviving references (16 KB) stay resident in L1 while a
// whole geometry group consumes them.
const replayBlockWords = 1 << 12

// Hooks are the replay kernel's optional observers. With both nil (or
// a nil *Hooks) the kernel runs the split, stripped path; with either
// set, every pair is driven reference by reference so each miss can be
// observed. Cache statistics are identical either way.
type Hooks struct {
	// Misses, when non-nil, holds one entry per pair; each pair's misses
	// accumulate into its entry by reference kind and §3.1 class.
	// Entries are added to, never reset, so replaying several streams
	// through fresh pairs sums their attribution.
	Misses []MissCounts
	// Sample, when non-nil, receives each pair's miss density: after
	// every SampleEvery instruction fetches (1000 when SampleEvery <= 0)
	// it is called with the pair's index, the cumulative fetch count,
	// and the I- and D-cache misses since that pair's previous sample; a
	// final partial sample flushes any remainder at the end of the
	// stream.
	Sample      func(pair int, instrs, iMisses, dMisses uint64)
	SampleEvery int
}

// sampler is one pair's miss-density state.
type sampler struct {
	fetches, iMiss, dMiss, next, every uint64
	emit                               func(instrs, iMisses, dMisses uint64)
}

// Replay streams src through every pair in one pass: fetches probe the
// instruction caches, reads and writes the data caches, so replaying
// into fresh pairs yields statistics identical to probing them with
// every reference during simulation. It takes fresh pairs. Without
// hooks each chunk is split, in the pass that decodes it, into a fetch
// stream and a data stream, and each stream drops every reference to
// the block of its own previous reference at the smallest block size
// of the pairs: that reference is a most-recently-used hit in every
// cache it would reach. A *Reader decodes a run of sequential fetches
// straight to the blocks it crosses. The survivors go in batches to a
// cache.Bank of the pairs' I-caches and one of their D-caches, which
// also count the dropped references as accesses; the banks hold the
// contents and the pairs receive statistics only, so a pair that has
// seen an access is an error. With hooks every reference probes every
// pair, unstripped.
//
// The context is checked before every chunk; on cancellation Replay
// returns ctx.Err() and the pairs' statistics are partial and must be
// discarded, as they must on a source error.
func Replay(ctx context.Context, src Source, pairs []Pair, h *Hooks) error {
	if h != nil && h.Misses == nil && h.Sample == nil {
		h = nil
	}
	var sp *splitter
	var samplers []sampler
	if h == nil {
		var err error
		if sp, err = newSplitter(pairs); err != nil {
			return err
		}
	} else if h.Sample != nil {
		every := uint64(1000)
		if h.SampleEvery > 0 {
			every = uint64(h.SampleEvery)
		}
		samplers = make([]sampler, len(pairs))
		for i := range samplers {
			samplers[i] = sampler{next: every, every: every, emit: func(instrs, iMisses, dMisses uint64) {
				h.Sample(i, instrs, iMisses, dMisses)
			}}
		}
	}
	done := ctx.Done()
	for {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		if sp != nil {
			if err := src.split(sp); err == io.EOF {
				sp.fetch.flush()
				sp.data.flush()
				return nil
			} else if err != nil {
				return err
			}
			continue
		}
		c, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for i, p := range pairs {
			var mc *MissCounts
			if h.Misses != nil {
				mc = &h.Misses[i]
			}
			var s *sampler
			if samplers != nil {
				s = &samplers[i]
			}
			observeChunk(c, p, mc, s)
		}
	}
	for _, s := range samplers {
		if s.iMiss != 0 || s.dMiss != 0 {
			s.emit(s.fetches, s.iMiss, s.dMiss)
		}
	}
	return nil
}

// splitter is the unhooked kernel's front end: the fetch stream bound
// for the pairs' I-caches and the data stream bound for their D-caches.
type splitter struct{ fetch, data stream }

func newSplitter(pairs []Pair) (*splitter, error) {
	is, ds := make([]*cache.Cache, len(pairs)), make([]*cache.Cache, len(pairs))
	for i, p := range pairs {
		is[i], ds[i] = p.I, p.D
	}
	ib, err := cache.BankOf(is...)
	if err != nil {
		return nil, err
	}
	db, err := cache.BankOf(ds...)
	if err != nil {
		return nil, err
	}
	// The I-caches only ever see the read-only fetch stream, so the
	// read-only kernels apply.
	return &splitter{fetch: newStream(ib, ib.AccessBatchFetch), data: newStream(db, db.AccessBatch)}, nil
}

// stream strips one side of the split and batches its survivors for
// one bank. Between two consecutive references of a stream no other
// reference reaches its caches, so a reference to the block of the
// stream's previous one, at the bank's smallest block size, is a
// most-recently-used hit in every member: it is dropped and only
// counted. A dropped write ORs its flag into the batch's last entry,
// which by induction is the same block and is dirtied one reference
// earlier; in an empty batch, just flushed, the write survives and the
// bank handles it as a top-of-stack write (see cache.Bank).
type stream struct {
	access  func(refs []uint32, n int) // the bank's batch entry point
	shift   uint32                     // word address to block at the bank's smallest block size
	prev    uint32                     // block of the stream's previous reference
	dropped int                        // references dropped since the last flush
	buf     []uint32                   // survivors, byte addresses (data: write flag in bit 0)
}

func newStream(b *cache.Bank, access func([]uint32, int)) stream {
	return stream{
		access: access,
		shift:  b.BlockShift() - 2,
		prev:   ^uint32(0), // no 30-bit word address reaches it
		buf:    make([]uint32, 0, replayBlockWords),
	}
}

// add passes one reference at word address word through the filter;
// write is cache.RefWrite for a data write and 0 otherwise. Only the
// drop of a read or fetch stays in line, so add inlines into the
// decoder.
func (s *stream) add(word, write uint32) {
	if word>>s.shift == s.prev && write == 0 {
		s.dropped++
	} else {
		s.keep(word, write)
	}
}

// keep takes a reference add did not drop: a write to the previous
// block folds into the batch's last entry unless the batch is empty,
// and any other reference survives.
func (s *stream) keep(word, write uint32) {
	blk := word >> s.shift
	if n := len(s.buf); blk == s.prev && n > 0 {
		s.buf[n-1] |= write
		s.dropped++
		return
	}
	s.prev = blk
	// push, in line, so that a survivor costs one call.
	s.buf = append(s.buf, word<<2|write)
	if len(s.buf) == cap(s.buf) {
		s.flush()
	}
}

// run passes a straight-line run of fetches, of words first through
// last, through the filter in one step per block the run touches: only
// the first word of a block can survive.
func (s *stream) run(first, last uint32) {
	b, end := first>>s.shift, last>>s.shift
	s.dropped += int(last-first) - int(end-b)
	if b == s.prev {
		s.dropped++
	} else {
		s.push(first << 2)
	}
	for b++; b <= end; b++ {
		s.push(b << (s.shift + 2))
	}
	s.prev = end
}

func (s *stream) push(ref uint32) {
	s.buf = append(s.buf, ref)
	if len(s.buf) == cap(s.buf) {
		s.flush()
	}
}

// flush hands the batch, and the count of references it stands for, to
// the bank.
func (s *stream) flush() {
	s.access(s.buf, len(s.buf)+s.dropped)
	s.buf, s.dropped = s.buf[:0], 0
}

// observeChunk drives one pair through one chunk reference by
// reference, attributing each miss into mc and counting it into s when
// they are non-nil.
func observeChunk(c []uint32, p Pair, mc *MissCounts, s *sampler) {
	ic, dc := p.I, p.D
	for _, w := range c {
		addr := w << 2 & (addrMask << 2)
		switch Kind(w >> kindShift) {
		case KindFetch:
			if !ic.Access(addr, false) {
				if mc != nil {
					mc.Fetch[mem.Classify(addr)]++
				}
				if s != nil {
					s.iMiss++
				}
			}
			if s != nil {
				s.fetches++
				if s.fetches >= s.next {
					s.emit(s.fetches, s.iMiss, s.dMiss)
					s.iMiss, s.dMiss = 0, 0
					s.next += s.every
				}
			}
		case KindRead:
			if !dc.Access(addr, false) {
				if mc != nil {
					mc.Read[mem.Classify(addr)]++
				}
				if s != nil {
					s.dMiss++
				}
			}
		default:
			if !dc.Access(addr, true) {
				if mc != nil {
					mc.Write[mem.Classify(addr)]++
				}
				if s != nil {
					s.dMiss++
				}
			}
		}
	}
}

// MissCounts attributes cache misses by cause: fetch misses and data
// read/write misses, each split by the §3.1 reference class of the
// missing address.
type MissCounts struct {
	Fetch [mem.NumClasses]uint64
	Read  [mem.NumClasses]uint64
	Write [mem.NumClasses]uint64
}

// Total returns all misses across kinds and classes.
func (mc *MissCounts) Total() uint64 {
	var t uint64
	for c := 0; c < int(mem.NumClasses); c++ {
		t += mc.Fetch[c] + mc.Read[c] + mc.Write[c]
	}
	return t
}

// AddTo folds the attribution into an observability registry under
// "<label>: cache.miss.{fetch,read,write}.<class>", where label names
// the geometry (e.g. "8K/4-way/64B: cache.miss.fetch.sys-code").
func (mc *MissCounts) AddTo(r *obs.Registry, label string) {
	pre := label + ": cache.miss."
	for c := mem.Class(0); c < mem.NumClasses; c++ {
		if n := mc.Fetch[c]; n != 0 {
			r.Counter(pre + "fetch." + c.String()).Add(n)
		}
		if n := mc.Read[c]; n != 0 {
			r.Counter(pre + "read." + c.String()).Add(n)
		}
		if n := mc.Write[c]; n != 0 {
			r.Counter(pre + "write." + c.String()).Add(n)
		}
	}
}
