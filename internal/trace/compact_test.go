package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"jmtam/internal/cache"
	"jmtam/internal/mem"
	"jmtam/internal/rng"
)

// ref is one recorded reference in test scaffolding.
type ref struct {
	k    Kind
	addr uint32
}

func record(refs []ref) *Recording {
	r := &Recording{}
	for _, x := range refs {
		record1(r, x)
	}
	return r
}

func refsOf(r *Recording) []ref {
	var out []ref
	r.Do(func(k Kind, addr uint32) { out = append(out, ref{k, addr}) })
	return out
}

// randomRefs draws a seeded mixture of sequential fetch runs, branchy
// fetches and clustered data references — the shapes real traces have —
// plus uniform noise.
func randomRefs(seed uint64, n int) []ref {
	src := rng.New(seed)
	var out []ref
	pc := uint32(0x1000)
	heap := uint32(0x40_0000)
	for len(out) < n {
		switch src.Uint64() % 5 {
		case 0: // straight-line code
			run := int(src.Uint64()%64) + 1
			for j := 0; j < run && len(out) < n; j++ {
				pc += 4
				out = append(out, ref{KindFetch, pc &^ 3})
			}
		case 1: // branch
			pc = uint32(src.Uint64()) &^ 3 & (1<<32 - 1)
			out = append(out, ref{KindFetch, pc})
		case 2: // local data burst
			base := heap + uint32(src.Uint64()%256)*4
			for j := 0; j < int(src.Uint64()%8)+1 && len(out) < n; j++ {
				k := KindRead
				if src.Uint64()%3 == 0 {
					k = KindWrite
				}
				out = append(out, ref{k, (base + uint32(j)*4) &^ 3})
			}
		case 3: // pointer chase
			heap = uint32(src.Uint64()) &^ 3
			out = append(out, ref{KindRead, heap})
		default: // uniform noise
			k := Kind(src.Uint64() % 3)
			out = append(out, ref{k, uint32(src.Uint64()) &^ 3})
		}
	}
	return out[:n]
}

func TestCompactRoundTrip(t *testing.T) {
	// Sizes straddle chunk boundaries: empty, tiny, exactly one chunk,
	// one word either side, and multiple chunks with a partial tail.
	sizes := []int{0, 1, 7, chunkWords - 1, chunkWords, chunkWords + 1, 2*chunkWords + 1717}
	for _, n := range sizes {
		refs := randomRefs(uint64(n)+1, n)
		rec := record(refs)
		data := rec.Compact()
		got, err := Decompact(data)
		if err != nil {
			t.Fatalf("n=%d: Decompact: %v", n, err)
		}
		if got.Len() != rec.Len() {
			t.Fatalf("n=%d: Len = %d, want %d", n, got.Len(), rec.Len())
		}
		if got.Counts != rec.Counts {
			t.Fatalf("n=%d: Counts = %+v, want %+v", n, got.Counts, rec.Counts)
		}
		a, b := refsOf(rec), refsOf(got)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: ref %d = %+v, want %+v", n, i, b[i], a[i])
			}
		}
	}
}

func TestCompactAnnotationRoundTrip(t *testing.T) {
	rec := record(randomRefs(42, 1000))
	ann := []byte(`{"program":"mmt","arg":50}`)
	data := rec.CompactAnnotated(ann)
	info, err := CompactStat(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(info.Annotation, ann) {
		t.Fatalf("annotation = %q, want %q", info.Annotation, ann)
	}
	if info.Refs != rec.Len() || info.PackedBytes != 4*rec.Len() || info.CompactBytes != len(data) {
		t.Fatalf("info = %+v", info)
	}
	if info.Counts != rec.Counts {
		t.Fatalf("info counts = %+v, want %+v", info.Counts, rec.Counts)
	}
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rd.Annotation(), ann) {
		t.Fatalf("reader annotation = %q", rd.Annotation())
	}
}

// TestReaderReplayMatchesRecording is the streaming-replay guarantee:
// driving cache pairs from a Reader over the compacted bytes leaves
// statistics identical to replaying the original recording.
func TestReaderReplayMatchesRecording(t *testing.T) {
	rec := record(randomRefs(7, 3*chunkWords/2))
	geoms := []cache.Config{
		{SizeBytes: 1 << 10, BlockBytes: 16, Assoc: 1},
		{SizeBytes: 8 << 10, BlockBytes: 64, Assoc: 4},
		{SizeBytes: 2 << 10, BlockBytes: 32, Assoc: 2},
	}
	direct, streamed := newPairs(t, geoms), newPairs(t, geoms)
	if err := Replay(context.Background(), rec.Chunks(), direct, nil); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(rec.Compact()))
	if err != nil {
		t.Fatal(err)
	}
	if err := Replay(context.Background(), rd, streamed, nil); err != nil {
		t.Fatal(err)
	}
	for i := range geoms {
		if direct[i].I.Stats() != streamed[i].I.Stats() || direct[i].D.Stats() != streamed[i].D.Stats() {
			t.Fatalf("geom %d: streamed stats I=%+v D=%+v, want I=%+v D=%+v", i,
				streamed[i].I.Stats(), streamed[i].D.Stats(), direct[i].I.Stats(), direct[i].D.Stats())
		}
	}
}

// TestCompactRatioSequential checks the run-length path: straight-line
// instruction streams collapse to a tiny fraction of the packed size.
func TestCompactRatioSequential(t *testing.T) {
	r := &Recording{}
	for i := uint32(0); i < 100_000; i++ {
		r.Fetch(0x1000 + i*4)
	}
	data := r.Compact()
	if ratio := float64(len(data)) / float64(4*r.Len()); ratio > 0.01 {
		t.Fatalf("sequential-fetch ratio = %.4f, want <= 0.01 (%d bytes for %d refs)", ratio, len(data), r.Len())
	}
}

// decodeErrors returns Decompact's error on data and the error of a
// streamed replay of it through one geometry.
func decodeErrors(t *testing.T, data []byte) (error, error) {
	t.Helper()
	_, err := Decompact(data)
	return err, streamedReplay(data, newPairs(t, kernelGeoms[:1]))
}

func TestDecompactRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("JTR"),
		[]byte("XXXX\x01"),
		[]byte("JTR2\x02"),                   // unsupported version
		[]byte("JTR2\x01\xff\xff"),           // torn annotation length
		append([]byte("JTR2\x01\x00"), 0xff), // torn total
	}
	for i, data := range cases {
		err, rerr := decodeErrors(t, data)
		if err == nil {
			t.Errorf("case %d: Decompact accepted garbage", i)
		}
		if fmt.Sprint(rerr) != fmt.Sprint(err) {
			t.Errorf("case %d: streamed replay error %v, Decompact's %v", i, rerr, err)
		}
	}
}

// TestDecompactTornTail truncates a valid compact stream at every
// length: every prefix but the full one must fail cleanly (no panic, no
// silent short decode), and a streamed replay of it with the same
// error.
func TestDecompactTornTail(t *testing.T) {
	rec := record(randomRefs(3, 5000))
	data := rec.CompactAnnotated([]byte("meta"))
	for cut := 0; cut < len(data); cut++ {
		err, rerr := decodeErrors(t, data[:cut])
		if err == nil {
			t.Fatalf("torn tail at %d/%d decoded without error", cut, len(data))
		}
		if fmt.Sprint(rerr) != fmt.Sprint(err) {
			t.Fatalf("torn tail at %d/%d: streamed replay error %v, Decompact's %v", cut, len(data), rerr, err)
		}
	}
	if err, rerr := decodeErrors(t, data); err != nil || rerr != nil {
		t.Fatalf("full stream failed: Decompact %v, streamed replay %v", err, rerr)
	}
	// Trailing junk after the final chunk is ignored by Decompact's
	// reader (the header's reference count bounds the stream), so a
	// range-fetched prefix of a longer object still decodes — but a
	// *corrupt* tail inside the counted chunks must not.
}

// craftedChunk is a payload for a one-chunk stream of nRefs references
// (see chunkBlob) and the error the chunk decoder must return on it, or
// "" for a valid one.
type craftedChunk struct {
	name    string
	nRefs   int
	payload []byte
	err     string
}

// ops encodes payload ops; op and runOp build them.
func ops(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func op(k Kind, delta int64) uint64 { return zigzag(delta)<<2 | uint64(k) }
func runOp(n uint64) uint64         { return n<<2 | tagRun }

// craftedChunks hit every check of the chunk decoder once, and pass its
// in-line op forms of each length.
var craftedChunks = []craftedChunk{
	{"valid, one- to five-byte ops and a run", 7, ops(op(KindFetch, 5), runOp(2), op(KindWrite, 100), op(KindRead, 1<<12),
		op(KindRead, 1<<19), op(KindFetch, 1<<26)), ""},
	{"two-byte op cut at the payload's end", 2, append(ops(op(KindFetch, 1)), 0x80), "truncated chunk payload"},
	{"four-byte op cut at the payload's end", 2, append(ops(op(KindFetch, 1)), 0x80, 0x80, 0x80), "truncated chunk payload"},
	{"11-byte op", 1, append(bytes.Repeat([]byte{0x80}, 10), 0x01), "truncated chunk payload"},
	{"10-byte op past 64 bits", 1, append(bytes.Repeat([]byte{0xff}, 9), 0x02), "truncated chunk payload"},
	{"empty run", 1, ops(runOp(0)), "fetch run of 0 in chunk with 1 references left"},
	{"run past the chunk's count", 2, ops(op(KindFetch, 1), runOp(2)), "fetch run of 2 in chunk with 1 references left"},
	{"run past the address space", 3, ops(op(KindFetch, addrMask-1), runOp(2)), "fetch run overflows the address space"},
	{"delta below 0", 1, ops(op(KindRead, -1)), "delta walks word address to -1"},
	{"delta above addrMask", 2, ops(op(KindWrite, 1), op(KindWrite, addrMask)), "delta walks word address to 1073741824"},
	{"trailing bytes", 1, ops(op(KindFetch, 1), op(KindFetch, 1)), "1 trailing bytes after chunk"},
}

// chunkBlob is a compact stream of one chunk of nRefs references with
// the given payload, whose header counts counted references, all as
// fetches of the first class: a reader checks only the counts' sum.
func chunkBlob(nRefs, counted int, payload []byte) []byte {
	b := append([]byte("JTR2\x01\x00"), ops(uint64(nRefs), uint64(counted))...)
	b = append(b, make([]byte, 3*mem.NumClasses-1)...)
	b = append(b, ops(uint64(nRefs), uint64(len(payload)))...)
	return append(b, payload...)
}

// miscounted are header counts that do not sum to the seven references
// of the valid crafted chunk, and the error each must meet.
var miscounted = []struct {
	counted int
	err     string
}{
	{0, "compact header counts miss 7 of its 7 references"},
	{6, "compact header counts miss 1 of its 7 references"},
	{8, "compact header counts exceed its 7 references"},
}

// TestDecompactChecks runs each crafted chunk through both outputs of
// the chunk decoder (see checkDecoders), and requires the error it was
// crafted for; a valid chunk must decode to its references. The valid
// chunk under headers whose counts do not sum to its references must
// be refused.
func TestDecompactChecks(t *testing.T) {
	for _, c := range craftedChunks {
		data := chunkBlob(c.nRefs, c.nRefs, c.payload)
		checkDecoders(t, data)
		_, err := Decompact(data)
		if c.err == "" && err != nil || c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)) {
			t.Errorf("%s: error %v, want %q", c.name, err, c.err)
		}
	}
	valid := craftedChunks[0]
	for _, m := range miscounted {
		data := chunkBlob(valid.nRefs, m.counted, valid.payload)
		checkDecoders(t, data)
		if _, err := Decompact(data); err == nil || !strings.Contains(err.Error(), m.err) {
			t.Errorf("header counting %d of %d references: error %v, want %q", m.counted, valid.nRefs, err, m.err)
		}
	}
	rec, err := Decompact(chunkBlob(valid.nRefs, valid.nRefs, valid.payload))
	if err != nil {
		t.Fatal(err)
	}
	want := []ref{{KindFetch, 5 << 2}, {KindFetch, 6 << 2}, {KindFetch, 7 << 2}, {KindWrite, 100 << 2},
		{KindRead, 1 << 12 << 2}, {KindRead, (1<<12 + 1<<19) << 2}, {KindFetch, (7 + 1<<26) << 2}}
	if got := refsOf(rec); !slices.Equal(got, want) {
		t.Fatalf("valid chunk decoded to %v, want %v", got, want)
	}
}

// TestEncoderMatchesCompact feeds random streams to an Encoder in
// slices of 1–7 references, and in slices cut one reference short of a
// chunk, at a chunk and one past it, and requires the bytes
// CompactAnnotated gives for a recording of the stream.
func TestEncoderMatchesCompact(t *testing.T) {
	src := rng.New(5)
	ann := []byte("meta")
	for _, n := range []int{0, 1, 100, chunkWords - 1, chunkWords, chunkWords + 1, 3*chunkWords + 5} {
		rec := record(randomRefs(uint64(n)+11, n))
		want := rec.CompactAnnotated(ann)
		slicings := map[string]func() int{"1-7": func() int { return 1 + src.Intn(7) }}
		for _, k := range []int{chunkWords - 1, chunkWords, chunkWords + 1} {
			slicings[fmt.Sprint(k)] = func() int { return k }
		}
		for name, next := range slicings {
			if got := encodeSliced(words(rec), next, ann, &rec.Counts); !bytes.Equal(got, want) {
				t.Errorf("n=%d, slices of %s: %d bytes differ from CompactAnnotated's %d", n, name, len(got), len(want))
			}
		}
	}
}

// encodeSliced feeds ws to an Encoder in slices of the lengths next
// returns, and returns its bytes.
func encodeSliced(ws []uint32, next func() int, annotation []byte, counts *Counts) []byte {
	var e Encoder
	for len(ws) > 0 {
		n := min(next(), len(ws))
		e.Add(ws[:n])
		ws = ws[n:]
	}
	return e.Bytes(annotation, counts)
}

// TestDecodersAgreeOnMutations flips, drops and inserts bytes in a few
// thousand compacted random streams, and checks each result with
// checkDecoders: seeded mutations that every test run repeats, where a
// short fuzz run may cover few.
func TestDecodersAgreeOnMutations(t *testing.T) {
	src := rng.New(1)
	for i := 0; i < 3000; i++ {
		n := src.Intn(400)
		if i%1000 == 999 {
			n = chunkWords + src.Intn(400) // two chunks
		}
		data := record(randomRefs(uint64(i), n)).Compact()
		for m := 1 + src.Intn(3); m > 0; m-- {
			at := src.Intn(len(data))
			switch src.Intn(3) {
			case 0:
				data[at] ^= 1 << src.Intn(8)
			case 1:
				data = slices.Delete(data, at, at+1)
			default:
				data = slices.Insert(data, at, byte(src.Uint64()))
			}
		}
		checkDecoders(t, data)
	}
}

func TestReaderNextEOF(t *testing.T) {
	rec := record(randomRefs(9, 100))
	rd, err := NewReader(bytes.NewReader(rec.Compact()))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		c, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n += len(c)
	}
	if n != rec.Len() {
		t.Fatalf("streamed %d refs, want %d", n, rec.Len())
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("Next after EOF = %v, want io.EOF", err)
	}
}

func TestCompactEmptyRecording(t *testing.T) {
	rec := &Recording{}
	got, err := Decompact(rec.Compact())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("Len = %d, want 0", got.Len())
	}
}
