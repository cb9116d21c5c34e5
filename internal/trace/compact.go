package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"jmtam/internal/mem"
)

// Compact recording format (v2). The packed in-memory form costs four
// bytes per reference; active-message traces are bursty and strongly
// segment-local, so on the wire and on disk the stream is delta+varint
// encoded per chunk instead:
//
//	magic   "JTR2"
//	version 0x01
//	uvarint annotation length, then that many opaque annotation bytes
//	uvarint total reference count
//	3×NumClasses uvarints: fetch, read, write counts per §3.1 class
//	chunks, until the total reference count is consumed:
//	  uvarint nRefs   (1 .. chunkWords)
//	  uvarint nBytes  (payload length)
//	  payload
//
// Each payload is a sequence of uvarint ops. The low two bits are the
// tag: tags 0..2 are the reference kinds, and the rest of the op is the
// zigzag delta of the word address from the previous reference of the
// same kind — instruction fetches advance mostly sequentially and data
// references cluster by segment, so deltas are small regardless of how
// the kinds interleave. Tag 3 is a run: the rest of the op counts
// consecutive instruction fetches each one word after its predecessor,
// which collapses straight-line code to two bytes per chunk-sized run.
// Delta state resets at every chunk boundary, so chunks decode
// independently and a reader can stream them without ever holding more
// than one decoded chunk.
// CompactVersion is the compact format's version byte. Content
// addresses fold it into their key material so a format bump
// invalidates stored recordings instead of misdecoding them.
const CompactVersion = compactVersion

const (
	compactVersion = 1
	// maxAnnotation bounds the header's opaque annotation blob so a
	// corrupt length prefix cannot force a huge allocation.
	maxAnnotation = 1 << 20
	// maxChunkPayload bounds one chunk's encoded payload: an op is at
	// most five bytes for a 32-bit zigzag delta.
	maxChunkPayload = 5*chunkWords + 16
)

const compactMagic = "JTR2"

// tagRun marks a run of sequential instruction fetches; tags 0..2 are
// the Kind values themselves.
const tagRun = 3

func zigzag(d int64) uint64   { return uint64((d << 1) ^ (d >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Compact encodes the recording into the self-describing v2 wire form.
// The result decodes back to an identical recording with Decompact, or
// streams chunk-by-chunk through a Reader.
func (r *Recording) Compact() []byte {
	return r.CompactAnnotated(nil)
}

// CompactAnnotated is Compact with an opaque annotation blob (at most
// 1 MiB) carried in the header — the recording store keeps the run
// summary there so a fetched recording needs no side channel. The
// annotation never affects replay.
func (r *Recording) CompactAnnotated(annotation []byte) []byte {
	var e Encoder
	for _, c := range r.chunks() {
		e.Add(c)
	}
	return e.Bytes(annotation, &r.Counts)
}

// Encoder compacts a reference stream while it is produced, say from a
// recording's drain: Add takes the stream's packed words in slices of
// any length, and Bytes returns what CompactAnnotated returns for a
// recording of the same stream. A chunk ends after every chunkWords
// references, however the stream is sliced, and the encoder keeps only
// the ended chunks' encoded bytes. The zero Encoder is ready to use.
type Encoder struct {
	ended [][]byte // each ended chunk's header and payload
	size  int      // bytes in ended
	total int      // references in ended
	// The open chunk: its reference count, per-kind last word
	// addresses, pending fetch run and payload so far.
	n       int
	last    [3]uint32
	run     int
	payload []byte
}

// Add encodes the stream's next references.
func (e *Encoder) Add(refs []uint32) {
	for len(refs) > 0 {
		n := min(len(refs), chunkWords-e.n)
		e.encode(refs[:n])
		if refs = refs[n:]; e.n == chunkWords {
			e.end()
		}
	}
}

// encode delta+varint encodes refs into the open chunk, with the
// chunk's state in locals. The per-kind last word-address registers
// start at zero in every chunk (the decoder mirrors this), and
// consecutive +1-word fetches coalesce into run ops.
func (e *Encoder) encode(refs []uint32) {
	last, run, dst := e.last, e.run, e.payload
	for _, w := range refs {
		k := w >> kindShift
		word := w & addrMask
		if k == uint32(KindFetch) && word == last[KindFetch]+1 {
			last[KindFetch] = word
			run++
			continue
		}
		if run > 0 {
			dst = binary.AppendUvarint(dst, uint64(run)<<2|tagRun)
			run = 0
		}
		delta := int64(word) - int64(last[k])
		last[k] = word
		dst = binary.AppendUvarint(dst, zigzag(delta)<<2|uint64(k))
	}
	e.n += len(refs)
	e.last, e.run, e.payload = last, run, dst
}

// end ends the open chunk, keeps a copy of its header and payload, and
// opens the next chunk.
func (e *Encoder) end() {
	if e.run > 0 {
		e.payload = binary.AppendUvarint(e.payload, uint64(e.run)<<2|tagRun)
	}
	c := make([]byte, 0, 2*binary.MaxVarintLen64+len(e.payload))
	c = binary.AppendUvarint(c, uint64(e.n))
	c = binary.AppendUvarint(c, uint64(len(e.payload)))
	c = append(c, e.payload...)
	e.ended, e.size, e.total = append(e.ended, c), e.size+len(c), e.total+e.n
	e.n, e.last, e.run, e.payload = 0, [3]uint32{}, 0, e.payload[:0]
}

// Bytes ends the stream and returns its compact form, with annotation
// (cut to 1 MiB) and counts in the header. counts are the stream's
// per-class counts: a Reader refuses a header whose counts do not sum
// to the references added. Add must not follow Bytes.
func (e *Encoder) Bytes(annotation []byte, counts *Counts) []byte {
	if e.n > 0 {
		e.end()
	}
	if len(annotation) > maxAnnotation {
		annotation = annotation[:maxAnnotation]
	}
	head := append([]byte(compactMagic), compactVersion)
	head = binary.AppendUvarint(head, uint64(len(annotation)))
	head = append(head, annotation...)
	head = binary.AppendUvarint(head, uint64(e.total))
	for _, cs := range []*[mem.NumClasses]uint64{&counts.Fetches, &counts.Reads, &counts.Writes} {
		for _, v := range cs {
			head = binary.AppendUvarint(head, v)
		}
	}
	out := append(make([]byte, 0, len(head)+e.size), head...)
	for _, c := range e.ended {
		out = append(out, c...)
	}
	return out
}

// decompactChunk decodes one payload, the exact inverse of
// Encoder.encode, and rejects any payload that does not decode to
// exactly nRefs in-range references. With sp nil it appends the packed
// words to out. Otherwise it builds no packed words: it strips each
// reference into sp's fetch or data stream by the rule the stream
// comment proves, a fetch run in one step per block it crosses, and
// hands each full batch to its bank. Both streams' state is held in
// locals for the whole chunk, loaded from sp once and stored back once.
func decompactChunk(payload []byte, nRefs int, out []uint32, sp *splitter) ([]uint32, error) {
	var (
		last           [4]uint32 // word address per tag; a run's is KindFetch's
		fShift, dShift uint32
		fPrev, dPrev   uint32
		fBuf, dBuf     *[replayBlockWords]uint32
		fN, dN         int // batch lengths
		fDrop, dDrop   int
		err            error
	)
	if sp != nil {
		f, d := &sp.fetch, &sp.data
		fShift, fPrev, fN, fDrop = f.shift, f.prev, len(f.buf), f.dropped
		dShift, dPrev, dN, dDrop = d.shift, d.prev, len(d.buf), d.dropped
		fBuf, dBuf = (*[replayBlockWords]uint32)(f.buf[:replayBlockWords]), (*[replayBlockWords]uint32)(d.buf[:replayBlockWords])
	}
	i, left := uint(0), nRefs
	for left > 0 {
		// One op. Its one-, two- and four-byte forms decode in line: a
		// four-byte op is most often a data reference that changes
		// segment.
		var v uint64
		if i < uint(len(payload)) && payload[i] < 0x80 {
			v = uint64(payload[i])
			i++
		} else if i+1 < uint(len(payload)) && payload[i+1] < 0x80 {
			v = uint64(payload[i]&0x7f) | uint64(payload[i+1])<<7
			i += 2
		} else if i+3 < uint(len(payload)) && payload[i+3] < 0x80 && payload[i+2] >= 0x80 {
			v = uint64(payload[i]&0x7f) | uint64(payload[i+1]&0x7f)<<7 | uint64(payload[i+2]&0x7f)<<14 | uint64(payload[i+3])<<21
			i += 4
		} else {
			var n int
			if v, n = binary.Uvarint(payload[i:]); n <= 0 {
				err = errors.New("trace: truncated chunk payload")
				break
			}
			i += uint(n)
		}
		tag := v & 3
		if tag == tagRun {
			cnt := v >> 2
			if cnt == 0 || cnt > uint64(left) {
				err = fmt.Errorf("trace: fetch run of %d in chunk with %d references left", cnt, left)
				break
			}
			if uint64(last[KindFetch])+cnt > addrMask {
				err = errors.New("trace: fetch run overflows the address space")
				break
			}
			first, end := last[KindFetch]+1, last[KindFetch]+uint32(cnt)
			last[KindFetch] = end
			left -= int(cnt)
			if sp == nil {
				for w := first; w <= end; w++ {
					out = append(out, w)
				}
				continue
			}
			// One step per block: its first word alone can survive, and
			// the run's own first word survives as itself.
			b, eb := first>>fShift, end>>fShift
			fDrop += int(end-first) - int(eb-b)
			ref := first << 2
			if b == fPrev {
				fDrop++
				b++
				ref = b << (fShift + 2)
			}
			for ; b <= eb; b++ {
				fBuf[fN] = ref
				if fN++; fN == replayBlockWords {
					sp.fetch.access(fBuf[:fN], fN+fDrop)
					fN, fDrop = 0, 0
				}
				ref = (b + 1) << (fShift + 2)
			}
			fPrev = eb
			continue
		}
		word := int64(last[tag]) + unzigzag(v>>2)
		if word < 0 || word > addrMask {
			err = fmt.Errorf("trace: delta walks word address to %d", word)
			break
		}
		w := uint32(word)
		last[tag] = w
		left--
		switch {
		case sp == nil:
			out = append(out, uint32(tag)<<kindShift|w)
		case tag == uint64(KindFetch):
			if blk := w >> fShift; blk == fPrev {
				fDrop++
			} else {
				fPrev = blk
				fBuf[fN] = w << 2
				if fN++; fN == replayBlockWords {
					sp.fetch.access(fBuf[:fN], fN+fDrop)
					fN, fDrop = 0, 0
				}
			}
		default:
			// KindWrite is 2 and KindRead 1: tag>>1 is the write flag. A
			// read of the previous block drops, and a write to it folds
			// into the batch's last entry unless the batch is empty. A
			// survivor's bit 1 keeps its own kind when a later write
			// folds into bit 0.
			write, blk := uint32(tag>>1), w>>dShift
			if blk == dPrev && write == 0 {
				dDrop++
			} else if blk == dPrev && dN > 0 {
				dBuf[dN-1] |= write
				dDrop++
			} else {
				dPrev = blk
				dBuf[dN] = w<<2 | write<<1 | write
				if dN++; dN == replayBlockWords {
					sp.data.access(dBuf[:dN], dN+dDrop)
					dN, dDrop = 0, 0
				}
			}
		}
	}
	if sp != nil {
		sp.fetch.prev, sp.fetch.buf, sp.fetch.dropped = fPrev, fBuf[:fN], fDrop
		sp.data.prev, sp.data.buf, sp.data.dropped = dPrev, dBuf[:dN], dDrop
	}
	if err == nil && i != uint(len(payload)) {
		err = fmt.Errorf("trace: %d trailing bytes after chunk", uint(len(payload))-i)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Reader streams a compacted recording: the header is parsed up front,
// then Next decodes one chunk at a time into a reused buffer, so a
// reader holds one decoded chunk (≤ 256 KB) regardless of trace length.
// Replay decodes each chunk straight into the kernel's streams instead,
// in the same loop (decompactChunk), and holds no decoded chunk. A
// Reader consumes its source exactly once; open a fresh Reader per
// replay pass.
type Reader struct {
	br         *bufio.Reader
	counts     Counts
	annotation []byte
	total      int
	remaining  int
	buf        []uint32
	payload    []byte
}

// NewReader parses the compact header from r and positions the stream
// at the first chunk.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: compact header: %w", noEOF(err))
	}
	if string(magic[:4]) != compactMagic {
		return nil, errors.New("trace: not a compact recording (bad magic)")
	}
	if magic[4] != compactVersion {
		return nil, fmt.Errorf("trace: unsupported compact version %d", magic[4])
	}
	annLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: compact header: %w", noEOF(err))
	}
	if annLen > maxAnnotation {
		return nil, fmt.Errorf("trace: annotation of %d bytes exceeds the %d-byte cap", annLen, maxAnnotation)
	}
	rd := &Reader{br: br}
	if annLen > 0 {
		rd.annotation = make([]byte, annLen)
		if _, err := io.ReadFull(br, rd.annotation); err != nil {
			return nil, fmt.Errorf("trace: compact header: %w", noEOF(err))
		}
	}
	total, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: compact header: %w", noEOF(err))
	}
	const maxRefs = 1 << 40 // recordings are bounded by instruction budgets, not 2^64
	if total > maxRefs {
		return nil, fmt.Errorf("trace: implausible reference count %d", total)
	}
	rd.total = int(total)
	rd.remaining = rd.total
	if err := rd.readCounts(); err != nil {
		return nil, err
	}
	return rd, nil
}

// readCounts reads the header's per-class counts, and refuses them
// unless they sum to the reference total.
func (rd *Reader) readCounts() error {
	left := uint64(rd.total)
	for _, dst := range []*[mem.NumClasses]uint64{&rd.counts.Fetches, &rd.counts.Reads, &rd.counts.Writes} {
		for cls := range dst {
			v, err := binary.ReadUvarint(rd.br)
			if err != nil {
				return fmt.Errorf("trace: compact header counts: %w", noEOF(err))
			}
			if v > left {
				return fmt.Errorf("trace: compact header counts exceed its %d references", rd.total)
			}
			dst[cls], left = v, left-v
		}
	}
	if left != 0 {
		return fmt.Errorf("trace: compact header counts miss %d of its %d references", left, rd.total)
	}
	return nil
}

// noEOF upgrades a bare EOF to ErrUnexpectedEOF: inside a header or
// chunk, running out of bytes is always a truncation.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Counts returns the header's reference counts by class, identical to
// the recorded Recording's Counts.
func (rd *Reader) Counts() Counts { return rd.counts }

// Len returns the total number of references in the stream.
func (rd *Reader) Len() int { return rd.total }

// PackedBytes returns the size the stream would occupy in the packed
// 4-byte-per-reference in-memory form.
func (rd *Reader) PackedBytes() int { return 4 * rd.total }

// Annotation returns the header's opaque annotation blob (nil when the
// recording was compacted without one).
func (rd *Reader) Annotation() []byte { return rd.annotation }

// Next decodes and returns the next chunk of packed trace words. The
// returned slice is valid until the following Next call. At the end of
// the stream it returns io.EOF.
func (rd *Reader) Next() ([]uint32, error) {
	payload, nRefs, err := rd.chunk()
	if err != nil {
		return nil, err
	}
	if rd.buf == nil {
		rd.buf = make([]uint32, 0, chunkWords)
	}
	buf, err := decompactChunk(payload, nRefs, rd.buf[:0], nil)
	if err != nil {
		return nil, err
	}
	rd.buf = buf
	return buf, nil
}

// split decodes the next chunk straight into the replay kernel's
// streams; no decoded-chunk buffer is allocated.
func (rd *Reader) split(sp *splitter) error {
	payload, nRefs, err := rd.chunk()
	if err == nil {
		_, err = decompactChunk(payload, nRefs, nil, sp)
	}
	return err
}

// chunk reads the next chunk's header and payload, or returns io.EOF at
// the end of the stream.
func (rd *Reader) chunk() ([]byte, int, error) {
	if rd.remaining == 0 {
		return nil, 0, io.EOF
	}
	nRefs, err := binary.ReadUvarint(rd.br)
	if err != nil {
		return nil, 0, fmt.Errorf("trace: chunk header: %w", noEOF(err))
	}
	if nRefs == 0 || nRefs > chunkWords || nRefs > uint64(rd.remaining) {
		return nil, 0, fmt.Errorf("trace: chunk of %d references (remaining %d, max %d)", nRefs, rd.remaining, chunkWords)
	}
	nBytes, err := binary.ReadUvarint(rd.br)
	if err != nil {
		return nil, 0, fmt.Errorf("trace: chunk header: %w", noEOF(err))
	}
	if nBytes > maxChunkPayload {
		return nil, 0, fmt.Errorf("trace: chunk payload of %d bytes exceeds the %d-byte cap", nBytes, maxChunkPayload)
	}
	if cap(rd.payload) < int(nBytes) {
		rd.payload = make([]byte, nBytes)
	}
	rd.payload = rd.payload[:nBytes]
	if _, err := io.ReadFull(rd.br, rd.payload); err != nil {
		return nil, 0, fmt.Errorf("trace: chunk payload: %w", noEOF(err))
	}
	rd.remaining -= int(nRefs)
	return rd.payload, int(nRefs), nil
}

// Decompact decodes a compacted recording back into the packed
// in-memory form. The result is indistinguishable from the Recording
// that produced the bytes: same reference stream, same Counts, same
// replay statistics through any geometry.
func Decompact(data []byte) (*Recording, error) {
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	rec := &Recording{}
	for {
		c, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for _, w := range c {
			rec.Add(w)
		}
	}
	rec.Counts = rd.Counts()
	return rec, nil
}

// CompactInfo summarizes a compacted recording's header without
// decoding its chunks.
type CompactInfo struct {
	// Refs is the total reference count.
	Refs int
	// PackedBytes is the packed in-memory size (4 bytes per reference);
	// CompactBytes the encoded size.
	PackedBytes  int
	CompactBytes int
	// Annotation is the header's opaque blob, nil when absent.
	Annotation []byte
	// Counts are the recorded per-class reference counts.
	Counts Counts
}

// Ratio returns CompactBytes / PackedBytes (0 for an empty recording).
func (i CompactInfo) Ratio() float64 {
	if i.PackedBytes == 0 {
		return 0
	}
	return float64(i.CompactBytes) / float64(i.PackedBytes)
}

// CompactStat parses just the header of a compacted recording — a cheap
// validity probe and size accounting for stores and endpoints.
func CompactStat(data []byte) (CompactInfo, error) {
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return CompactInfo{}, err
	}
	return CompactInfo{
		Refs:         rd.Len(),
		PackedBytes:  rd.PackedBytes(),
		CompactBytes: len(data),
		Annotation:   rd.Annotation(),
		Counts:       rd.Counts(),
	}, nil
}
