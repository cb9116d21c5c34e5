package trace

import (
	"context"

	"jmtam/internal/cache"
	"jmtam/internal/mem"
	"jmtam/internal/obs"
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

// Recording is a compact in-memory reference trace. It implements
// machine.Tracer, so a simulation records its stream by running with a
// Recording attached; Replay then streams the recording through cache
// pairs. Recording once and replaying per geometry turns the N-geometry
// fan-out into N independent, parallelizable passes instead of N
// synchronous Access calls per reference inside the simulator loop.
//
// Each reference costs four bytes ({kind:2, addr:30} packed words in
// chunked append-only buffers); Counts are accumulated at record time
// exactly as Collector does, so a Recording is a drop-in source for the
// §3.1 reference-class statistics.
type Recording struct {
	Counts
	full [][]uint32 // completed chunks
	tail []uint32   // active chunk, cap chunkWords
}

func (r *Recording) push(k Kind, addr uint32) {
	r.pushWord(Encode(k, addr))
}

// pushWord appends one already-packed trace word, maintaining the
// standard chunk layout. Counts are the caller's responsibility.
func (r *Recording) pushWord(w uint32) {
	if len(r.tail) == cap(r.tail) {
		if r.tail != nil {
			r.full = append(r.full, r.tail)
		}
		r.tail = make([]uint32, 0, chunkWords)
	}
	r.tail = append(r.tail, w)
}

// Fetch records an instruction fetch.
func (r *Recording) Fetch(addr uint32) {
	r.Fetches[mem.Classify(addr)]++
	r.push(KindFetch, addr)
}

// Read records a data read.
func (r *Recording) Read(addr uint32) {
	r.Reads[mem.Classify(addr)]++
	r.push(KindRead, addr)
}

// Write records a data write.
func (r *Recording) Write(addr uint32) {
	r.Writes[mem.Classify(addr)]++
	r.push(KindWrite, addr)
}

// Len returns the number of recorded references.
func (r *Recording) Len() int {
	n := len(r.tail)
	for _, c := range r.full {
		n += len(c)
	}
	return n
}

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

// ReplayAll streams the recording through any number of cache pairs in
// one pass of the replay kernel (see Replay).
func (r *Recording) ReplayAll(pairs []Pair) {
	// A packed source never fails and Background is never cancelled.
	_ = Replay(context.Background(), r.Chunks(), pairs, nil)
}

// MissDensityTrack replays the recording through a fresh cache pair of
// the given geometry and exports I- and D-cache miss counter tracks
// onto b's pid timeline, one sample per `every` instructions (1000 when
// every <= 0). Timestamps are cumulative instruction counts — the same
// clock as the machine's scheduler spans — so conflict-miss bursts line
// up with the quantum and inlet spans they occur inside. A non-empty
// label prefixes the track names ("nic.I-miss density"), so a second
// reference stream on the same pid (e.g. a NIC engine's share under an
// offload backend) gets its own pair of tracks instead of colliding
// with the compute-side ones. Returns the replayed pair for its
// aggregate statistics.
func (r *Recording) MissDensityTrack(b *obs.EventBuffer, pid int32, cfg cache.Config, every int, label string) (Pair, error) {
	p, err := NewPair(cfg)
	if err != nil {
		return Pair{}, err
	}
	if label != "" {
		label += "."
	}
	err = Replay(context.Background(), r.Chunks(), []Pair{p}, &Hooks{
		SampleEvery: every,
		Sample: func(_ int, instrs, iMiss, dMiss uint64) {
			b.Counter(label+"I-miss density", "miss-density", pid, instrs, "misses", iMiss)
			b.Counter(label+"D-miss density", "miss-density", pid, instrs, "misses", dMiss)
		},
	})
	return p, err
}
