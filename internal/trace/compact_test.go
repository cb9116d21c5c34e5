package trace

import (
	"bytes"
	"context"
	"io"
	"testing"

	"jmtam/internal/cache"
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
		if _, err := Decompact(data); err == nil {
			t.Errorf("case %d: Decompact accepted garbage", i)
		}
	}
}

// TestDecompactTornTail truncates a valid compact stream at every
// length: every prefix but the full one must fail cleanly (no panic, no
// silent short decode).
func TestDecompactTornTail(t *testing.T) {
	rec := record(randomRefs(3, 5000))
	data := rec.CompactAnnotated([]byte("meta"))
	for cut := 0; cut < len(data); cut++ {
		if _, err := Decompact(data[:cut]); err == nil {
			t.Fatalf("torn tail at %d/%d decoded without error", cut, len(data))
		}
	}
	if _, err := Decompact(data); err != nil {
		t.Fatalf("full stream failed: %v", err)
	}
	// Trailing junk after the final chunk is ignored by Decompact's
	// reader (the header's reference count bounds the stream), so a
	// range-fetched prefix of a longer object still decodes — but a
	// *corrupt* tail inside the counted chunks must not.
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
