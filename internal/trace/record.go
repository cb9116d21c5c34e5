package trace

import (
	"context"
	"sync"

	"jmtam/internal/mem"
)

// Reference kinds in a recorded trace.
type Kind uint8

// The three reference kinds the execution engine produces.
const (
	KindFetch Kind = 0
	KindRead  Kind = 1
	KindWrite Kind = 2
)

// Packed-word layout: the kind occupies the top two bits, the
// word-aligned byte address (shifted right by two) the low thirty.
// Every address the engine produces is word-aligned (package mem traps
// unaligned data access and instruction addresses are word-indexed), so
// the two dropped bits are always zero and any 32-bit address
// round-trips exactly.
const (
	kindShift = 30
	addrMask  = 1<<kindShift - 1
)

// Encode packs one reference into a trace word.
func Encode(k Kind, addr uint32) uint32 {
	return uint32(k)<<kindShift | (addr >> 2 & addrMask)
}

// Decode unpacks a trace word.
func Decode(w uint32) (Kind, uint32) {
	return Kind(w >> kindShift), w << 2 & (addrMask << 2)
}

// chunkWords sizes the recording's append buffers: 64K references
// (256 KB) per chunk keeps growth allocation-free in the simulator's
// hot loop while bounding slack to one chunk.
const chunkWords = 1 << 16

// chunkPool recycles chunks between recordings (see Release). A
// recycled chunk is never cleared: a recording reads only the prefix it
// appended itself.
var chunkPool = sync.Pool{New: func() any { return new([chunkWords]uint32) }}

// Recording is a compact in-memory reference trace and the execution
// engine's only reference sink: a simulation records its stream by
// running with a Recording attached, and Replay then streams the
// recording through cache pairs. Recording once and replaying per
// geometry turns the N-geometry fan-out into N independent,
// parallelizable passes.
//
// Each reference costs four bytes ({kind:2, addr:30} packed words in
// chunked append-only buffers). Counts hold the §3.1 per-class
// reference counts and are exact at every moment: Fetch, Read and
// Write classify and count each reference, while the machine's hot
// path appends with Add and counts the class where it already knows
// it. A recording with a drain (see Drain) holds one chunk however
// long the stream grows.
type Recording struct {
	Counts
	full    [][]uint32     // completed chunks, each exactly chunkWords long
	tail    []uint32       // active chunk, cap chunkWords
	drain   func([]uint32) // see Drain
	drained int            // references handed to the drain
}

// Add appends one packed trace word without counting it; the caller
// adds the reference to Counts. It is small enough to inline into the
// interpreter loop.
func (r *Recording) Add(w uint32) {
	if len(r.tail) == cap(r.tail) {
		r.seal()
	}
	r.tail = append(r.tail, w)
}

// seal retires the full active chunk and starts a pooled one, or, with
// a drain attached, hands the chunk to the drain and reuses it in
// place. It stays out of line so that Add inlines.
//
//go:noinline
func (r *Recording) seal() {
	switch {
	case r.tail == nil:
		r.tail = chunkPool.Get().(*[chunkWords]uint32)[:0]
	case r.drain != nil:
		r.Flush()
	default:
		r.full = append(r.full, r.tail)
		r.tail = chunkPool.Get().(*[chunkWords]uint32)[:0]
	}
}

// Drain attaches fn, before the first reference, as the recording's
// drain: every reference then reaches fn exactly once, in append order,
// a chunk at a time as the active chunk fills and the rest at each
// Flush, and the chunk is reused in place, so the recording holds one
// chunk however long the stream grows. fn must be done with the slice
// when it returns. Len and Counts still count every reference; Chunks,
// Do and Compact see only the references not yet drained.
func (r *Recording) Drain(fn func(refs []uint32)) { r.drain = fn }

// Flush hands the drain the references it has not yet seen. Without a
// drain, or on a nil recording, it does nothing.
func (r *Recording) Flush() {
	if r == nil || r.drain == nil || len(r.tail) == 0 {
		return
	}
	r.drain(r.tail)
	r.drained += len(r.tail)
	r.tail = r.tail[:0]
}

// Release empties the stream and returns its chunks to a pool that
// later recordings draw from. Len reads 0 afterwards, drained references
// included; Counts are kept, so totals after Release come from Counts.
// Nothing may read the recording's chunks (Chunks, Do, replay)
// afterwards. Release is optional: an unreleased recording is merely
// garbage.
func (r *Recording) Release() {
	for _, c := range append(r.full, r.tail) {
		if cap(c) == chunkWords {
			chunkPool.Put((*[chunkWords]uint32)(c[:chunkWords]))
		}
	}
	r.full, r.tail, r.drained = nil, nil, 0
}

// Fetch records an instruction fetch. A nil recording records nothing.
func (r *Recording) Fetch(addr uint32) {
	if r != nil {
		r.Fetches[mem.Classify(addr)]++
		r.Add(Encode(KindFetch, addr))
	}
}

// Read records a data read. A nil recording records nothing.
func (r *Recording) Read(addr uint32) {
	if r != nil {
		r.Reads[mem.Classify(addr)]++
		r.Add(Encode(KindRead, addr))
	}
}

// Write records a data write. A nil recording records nothing.
func (r *Recording) Write(addr uint32) {
	if r != nil {
		r.Writes[mem.Classify(addr)]++
		r.Add(Encode(KindWrite, addr))
	}
}

// Len returns the number of recorded references, drained ones
// included, until Release empties the stream and Len reads 0; Counts
// keep the totals.
func (r *Recording) Len() int { return r.drained + r.held() }

// held returns the number of references the recording holds.
func (r *Recording) held() int { return len(r.full)*chunkWords + len(r.tail) }

// Bytes returns the recording's approximate memory footprint.
func (r *Recording) Bytes() int {
	n := cap(r.tail)
	for _, c := range r.full {
		n += cap(c)
	}
	return 4 * n
}

// chunks returns the recording's chunk list, tail included, without
// mutating the receiver.
func (r *Recording) chunks() [][]uint32 {
	if len(r.tail) == 0 {
		return r.full
	}
	return append(r.full[:len(r.full):len(r.full)], r.tail)
}

// Do streams every recorded reference, in order, to fn.
func (r *Recording) Do(fn func(k Kind, addr uint32)) {
	for _, c := range r.chunks() {
		for _, w := range c {
			fn(Decode(w))
		}
	}
}

// ReplayAll streams the recording through any number of fresh cache
// pairs in one pass of the replay kernel (see Replay).
func (r *Recording) ReplayAll(pairs []Pair) {
	// A packed source never fails, Background is never cancelled, and
	// fresh pairs are never refused.
	_ = Replay(context.Background(), r.Chunks(), pairs, nil)
}
