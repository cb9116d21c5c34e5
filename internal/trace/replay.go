package trace

import (
	"context"
	"io"

	"jmtam/internal/cache"
	"jmtam/internal/mem"
	"jmtam/internal/obs"
)

// Source yields a recorded reference stream as chunks of packed trace
// words, in order; Next returns io.EOF after the last chunk. A *Reader
// is a Source over compacted bytes, and Recording.Chunks returns one
// over the packed in-memory form, so the replay kernel consumes either
// without caring which.
type Source interface {
	Next() ([]uint32, error)
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

// Chunks returns a Source over the recording's packed chunks. The
// recording must not grow while the Source is in use.
func (r *Recording) Chunks() Source { return &cursor{chunks: r.chunks()} }

// replayBlockWords sizes the replay kernel's partition buffers: 4K
// references (16 KB of packed words, at most 32 KB of partitioned
// output) stay resident in L1 while a whole geometry group consumes
// them.
const replayBlockWords = 1 << 12

// Hooks are the replay kernel's optional observers. With both nil (or
// a nil *Hooks) the kernel runs the batched, stripped path; with either
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
// hooks each block of packed words is decoded once and partitioned
// into a fetch stream and a data stream (write flag in bit 0), which a
// cache.Bank of the pairs' I-caches and one of their D-caches consume
// while the block is hot in L1; the banks hold the contents and the
// pairs receive statistics only, so a pair that has seen an access is
// an error. With hooks every reference probes every pair, unstripped.
//
// The context is checked before every chunk; on cancellation Replay
// returns ctx.Err() and the pairs' statistics are partial and must be
// discarded, as they must on a source error.
func Replay(ctx context.Context, src Source, pairs []Pair, h *Hooks) error {
	if h != nil && h.Misses == nil && h.Sample == nil {
		h = nil
	}
	var samplers []sampler
	if h != nil && h.Sample != nil {
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
	var ib, db *cache.Bank
	var fetch, data []uint32
	if h == nil {
		is, ds := make([]*cache.Cache, len(pairs)), make([]*cache.Cache, len(pairs))
		for i, p := range pairs {
			is[i], ds[i] = p.I, p.D
		}
		var err error
		if ib, err = cache.BankOf(is...); err != nil {
			return err
		}
		if db, err = cache.BankOf(ds...); err != nil {
			return err
		}
		fetch = make([]uint32, 0, replayBlockWords)
		data = make([]uint32, 0, replayBlockWords)
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
		c, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if h == nil {
			for off := 0; off < len(c); off += replayBlockWords {
				fetch, data = partition(c[off:min(off+replayBlockWords, len(c))], fetch[:0], data[:0])
				// The I-caches only ever see this read-only fetch
				// stream, so the read-only kernels apply.
				ib.AccessBatchFetch(fetch)
				db.AccessBatch(data)
			}
			continue
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

// partition decodes one block of packed trace words into the
// instruction-fetch address stream and the data stream. Data references
// carry the write flag in bit 0 (addresses are word-aligned, so the bit
// is free); KindWrite is 2 and KindRead 1, so kind>>1 is that flag.
func partition(block []uint32, fetch, data []uint32) ([]uint32, []uint32) {
	for _, w := range block {
		k := w >> kindShift
		addr := w << 2 & (addrMask << 2)
		if k == uint32(KindFetch) {
			fetch = append(fetch, addr)
		} else {
			data = append(data, addr|k>>1)
		}
	}
	return fetch, data
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
