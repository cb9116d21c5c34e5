package trace

import (
	"context"
	"io"
	"sync"

	"jmtam/internal/cache"
	"jmtam/internal/mem"
	"jmtam/internal/obs"
)

// Source yields a recorded reference stream in chunks, in order, for
// Replay's pull loop. Next returns the next chunk as packed trace
// words, and io.EOF after the last; a sampled replay reads it, to cut
// the stream at sample boundaries. split feeds the next chunk straight
// into the kernel's fetch and data streams, and also returns io.EOF
// after the last. A *Reader is a Source over compacted bytes, and
// Recording.Chunks returns one over the packed in-memory form, so the
// replay kernel consumes either without caring which.
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
	sp.packed(ch)
	return err
}

// Chunks returns a Source over the recording's packed chunks: the
// references it holds, so none that a drain took (see Drain). The
// recording must not grow while the Source is in use.
func (r *Recording) Chunks() Source { return &cursor{chunks: r.chunks()} }

// replayBlockWords sizes each of the kernel's two stream buffers: 4K
// surviving references (16 KB) stay resident in L1 while a whole
// geometry group consumes them.
const replayBlockWords = 1 << 12

// streamBufs recycles the stream buffers between replays.
var streamBufs = sync.Pool{New: func() any { return new([replayBlockWords]uint32) }}

// Hooks are the replay kernel's optional observers. Hooked or not, the
// kernel runs the same split, stripped streams through the same banks,
// and cache statistics are identical either way.
type Hooks struct {
	// Misses, when non-nil, holds one entry per pair; each pair's misses
	// accumulate into its entry by reference kind and §3.1 class.
	// Entries are added to, never reset, so replaying several streams
	// through fresh pairs sums their attribution. The pairs' banks then
	// count misses by kind and class (see cache.AttributingBankOf).
	Misses []MissCounts
	// Sample, when non-nil, receives each pair's miss density. The
	// stream is cut after every SampleEvery instruction fetches (1000
	// when SampleEvery <= 0), counting fetches the kernel strips, and at
	// each cut Sample is called once per pair, in pair order, with the
	// pair's index, the cumulative fetch count, and the pair's I- and
	// D-cache misses since the previous cut. At the end of the stream a
	// final partial sample reports each pair that missed since the last
	// cut, again in pair order. Samples thus arrive cut by cut.
	Sample      func(pair int, instrs, iMisses, dMisses uint64)
	SampleEvery int
}

// Replayer is the replay kernel, fed by pushes: Feed hands it the next
// references of one stream, in order and in slices of any length, and
// Close ends the stream. Fetches probe the instruction caches, reads
// and writes the data caches, so replaying into fresh pairs yields
// statistics identical to probing them with every reference during
// simulation; a recording's drain can therefore feed a Replayer while
// the simulation records, and nothing need hold the whole stream.
//
// Each slice is split, in the pass that reads it, into a fetch stream
// and a data stream, and each stream drops every reference to the block
// of its own previous reference at the smallest block size of the
// pairs: that reference is a most-recently-used hit in every cache it
// would reach. The survivors go in batches to a cache.Bank of the
// pairs' I-caches and one of their D-caches, which also count the
// dropped references as accesses; the banks hold the contents and the
// pairs receive statistics only, so a pair that has seen an access is
// an error. Hooks attribute misses in the banks and cut the batches at
// sample boundaries (see Hooks).
type Replayer struct {
	pairs []Pair
	h     *Hooks
	sp    *splitter
	cuts  *cutter // nil unless sampling
}

// NewReplayer starts a replay of one stream through fresh pairs, with
// optional hooks. It takes two stream buffers from a pool, which Close
// returns.
func NewReplayer(pairs []Pair, h *Hooks) (*Replayer, error) {
	sp, err := newSplitter(pairs, h != nil && h.Misses != nil)
	if err != nil {
		return nil, err
	}
	rp := &Replayer{pairs: pairs, h: h, sp: sp}
	if h != nil && h.Sample != nil {
		rp.cuts = newCutter(h, pairs)
	}
	return rp, nil
}

// Feed replays the stream's next references, packed trace words.
func (rp *Replayer) Feed(refs []uint32) {
	if rp.cuts == nil {
		rp.sp.packed(refs)
	} else {
		rp.cuts.feed(refs, rp.sp)
	}
}

// Close ends the stream: both streams flush into the banks, a sampled
// replay reports its final partial sample, and the attribution adds
// into Hooks.Misses. The pairs' statistics are then complete, and the
// stream buffers go back to the pool. Feed must not be called after.
func (rp *Replayer) Close() {
	rp.sp.flush()
	if rp.cuts != nil {
		rp.cuts.cut(false)
	}
	if rp.h != nil && rp.h.Misses != nil {
		for i, p := range rp.pairs {
			rp.h.Misses[i].add(p)
		}
	}
	rp.sp.release()
}

// Replay streams src through every pair in one pass of a Replayer,
// pulling one chunk at a time; a *Reader decodes a run of sequential
// fetches straight to the blocks it crosses unless the replay samples.
// It takes fresh pairs.
//
// The context is checked before every chunk; on cancellation Replay
// returns ctx.Err() and the pairs' statistics are partial and must be
// discarded, as they must on a source error. Either way no final
// sample is reported.
func Replay(ctx context.Context, src Source, pairs []Pair, h *Hooks) error {
	rp, err := NewReplayer(pairs, h)
	if err != nil {
		return err
	}
	done := ctx.Done()
	for err == nil {
		if done != nil {
			select {
			case <-done:
				err = ctx.Err()
				continue
			default:
			}
		}
		if rp.cuts == nil {
			err = src.split(rp.sp)
		} else {
			var ch []uint32
			ch, err = src.Next()
			rp.Feed(ch)
		}
	}
	if err != io.EOF {
		rp.sp.release()
		return err
	}
	rp.Close()
	return nil
}

// cutter cuts a sampled replay after every every-th fetch: both streams
// flush, so each pair's statistics are exact at the cut, and each pair
// reports its misses since the previous cut.
type cutter struct {
	sample         func(pair int, instrs, iMisses, dMisses uint64)
	pairs          []Pair
	every, fetches uint64
	last           [][2]uint64 // each pair's I- and D-misses at the previous cut
}

func newCutter(h *Hooks, pairs []Pair) *cutter {
	every := uint64(1000)
	if h.SampleEvery > 0 {
		every = uint64(h.SampleEvery)
	}
	return &cutter{sample: h.Sample, pairs: pairs, every: every, last: make([][2]uint64, len(pairs))}
}

// feed passes refs into sp's streams, cutting after every every-th
// fetch.
func (c *cutter) feed(refs []uint32, sp *splitter) {
	for _, w := range refs {
		if w>>kindShift != uint32(KindFetch) {
			sp.data.add(w&addrMask, w>>(kindShift+1))
			continue
		}
		sp.fetch.add(w&addrMask, 0)
		if c.fetches++; c.fetches%c.every == 0 {
			sp.flush()
			c.cut(true)
		}
	}
}

// cut reports each pair's misses since the previous cut: every pair's
// when full is set, and only a pair's that missed otherwise.
func (c *cutter) cut(full bool) {
	for i, p := range c.pairs {
		im, dm := p.I.Stats().Misses, p.D.Stats().Misses
		if di, dd := im-c.last[i][0], dm-c.last[i][1]; full || di != 0 || dd != 0 {
			c.sample(i, c.fetches, di, dd)
		}
		c.last[i] = [2]uint64{im, dm}
	}
}

// splitter is the kernel's front end: the fetch stream bound for the
// pairs' I-caches and the data stream bound for their D-caches.
type splitter struct{ fetch, data stream }

// newSplitter builds the pairs' banks, attributing ones when attribute
// is set, and takes the streams' buffers from the pool; release returns
// them.
func newSplitter(pairs []Pair, attribute bool) (*splitter, error) {
	is, ds := make([]*cache.Cache, len(pairs)), make([]*cache.Cache, len(pairs))
	for i, p := range pairs {
		is[i], ds[i] = p.I, p.D
	}
	bankOf := cache.BankOf
	if attribute {
		bankOf = cache.AttributingBankOf
	}
	ib, err := bankOf(is...)
	if err != nil {
		return nil, err
	}
	db, err := bankOf(ds...)
	if err != nil {
		return nil, err
	}
	// The I-caches only ever see the read-only fetch stream, so the
	// read-only kernels apply.
	return &splitter{fetch: newStream(ib, ib.AccessBatchFetch), data: newStream(db, db.AccessBatch)}, nil
}

// packed feeds packed trace words into the fetch and data streams.
func (sp *splitter) packed(ch []uint32) {
	for _, w := range ch {
		if w>>kindShift == uint32(KindFetch) {
			sp.fetch.add(w&addrMask, 0)
		} else {
			// KindWrite is 2 and KindRead 1, so the kind's high bit is
			// the write flag.
			sp.data.add(w&addrMask, w>>(kindShift+1))
		}
	}
}

// flush hands both streams' batches to their banks.
func (sp *splitter) flush() {
	sp.fetch.flush()
	sp.data.flush()
}

// release returns both streams' buffers to the pool.
func (sp *splitter) release() {
	for _, s := range []*stream{&sp.fetch, &sp.data} {
		streamBufs.Put((*[replayBlockWords]uint32)(s.buf[:replayBlockWords]))
		s.buf = nil
	}
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
	buf     []uint32                   // survivors, byte addresses (data: flags as cache.RefWrite says)
}

func newStream(b *cache.Bank, access func([]uint32, int)) stream {
	return stream{
		access: access,
		shift:  b.BlockShift() - 2,
		prev:   ^uint32(0), // no 30-bit word address reaches it
		buf:    streamBufs.Get().(*[replayBlockWords]uint32)[:0],
	}
}

// add passes one reference at word address word through the filter;
// write is cache.RefWrite for a data write and 0 otherwise. Only the
// drop of a read or fetch stays in line, so add inlines into the
// decoder and the splitter, as CI's Inlining step checks; with keep in
// it, it would not.
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
	// push, in line, so that a survivor costs one call. Bit 1 keeps the
	// reference's own kind when a later write folds into bit 0.
	s.buf = append(s.buf, word<<2|write<<1|write)
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

// MissCounts attributes cache misses by cause: fetch misses and data
// read/write misses, each split by the §3.1 reference class of the
// missing address.
type MissCounts struct {
	Fetch [mem.NumClasses]uint64
	Read  [mem.NumClasses]uint64
	Write [mem.NumClasses]uint64
}

// add accumulates the misses p's banks attributed.
func (mc *MissCounts) add(p Pair) {
	fetch, _ := p.I.ClassMisses()
	read, write := p.D.ClassMisses()
	for c := range mc.Fetch {
		mc.Fetch[c] += fetch[c]
		mc.Read[c] += read[c]
		mc.Write[c] += write[c]
	}
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
