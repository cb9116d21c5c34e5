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
// Replay's pull loop: split feeds the next chunk straight into the
// kernel's fetch and data streams, and returns io.EOF after the last.
// A *Reader is a Source over compacted bytes, and Recording.Chunks
// returns one over the packed in-memory form, so the replay kernel
// consumes either without caring which.
type Source interface {
	split(*splitter) error
}

// cursor walks a packed recording's chunk list.
type cursor struct{ chunks [][]uint32 }

func (c *cursor) split(sp *splitter) error {
	if len(c.chunks) == 0 {
		return io.EOF
	}
	sp.packed(c.chunks[0])
	c.chunks = c.chunks[1:]
	return nil
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
// an error.
type Replayer struct {
	pairs  []Pair
	misses []MissCounts
	sp     *splitter
}

// NewReplayer starts a replay of one stream through fresh pairs. With
// misses non-nil, which then holds one entry per pair, the pairs' banks
// count misses by reference kind and §3.1 class (see
// cache.AttributingBankOf), and Close adds each pair's into its entry;
// entries are never reset, so replaying several streams through fresh
// pairs sums their attribution. It takes two stream buffers from a
// pool, which Close returns.
func NewReplayer(pairs []Pair, misses []MissCounts) (*Replayer, error) {
	sp, err := newSplitter(pairs, misses != nil)
	if err != nil {
		return nil, err
	}
	return &Replayer{pairs: pairs, misses: misses, sp: sp}, nil
}

// Feed replays the stream's next references, packed trace words.
func (rp *Replayer) Feed(refs []uint32) { rp.sp.packed(refs) }

// Flush hands every reference fed so far to the banks, so each pair's
// statistics are exact until the next Feed. It does not end the stream,
// and the pairs' statistics after Close are the same whether or where
// it was called.
func (rp *Replayer) Flush() { rp.sp.flush() }

// Close ends the stream: both streams flush into the banks and the
// attribution adds into misses. The pairs' statistics are then
// complete, and the stream buffers go back to the pool. Feed must not
// be called after.
func (rp *Replayer) Close() {
	rp.sp.flush()
	if rp.misses != nil {
		for i, p := range rp.pairs {
			rp.misses[i].add(p)
		}
	}
	rp.sp.release()
}

// Replay streams src through every pair in one pass of a Replayer,
// pulling one chunk at a time; a *Reader decodes a run of sequential
// fetches straight to the blocks it crosses. It takes fresh pairs, and
// attributes misses into misses as NewReplayer does.
//
// The context is checked before every chunk; on cancellation Replay
// returns ctx.Err() and the pairs' statistics are partial and must be
// discarded, as they must on a source error.
func Replay(ctx context.Context, src Source, pairs []Pair, misses []MissCounts) error {
	rp, err := NewReplayer(pairs, misses)
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
		err = src.split(rp.sp)
	}
	if err != io.EOF {
		rp.sp.release()
		return err
	}
	rp.Close()
	return nil
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
// bank handles it as a top-of-stack write (see cache.Bank). So in a run
// of sequential fetches only the first word of each block it crosses
// can survive. add and keep apply this rule to one reference, and
// decompactChunk applies it in line, with the stream's fields held in
// locals for a chunk.
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
// splitter, as CI's Inlining step checks; with keep in it, it would
// not.
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
