package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"jmtam/internal/mem"
)

// FuzzCompactRoundTrip interprets the fuzz input as a (kind, addr)
// reference stream, compacts it, and asserts the decoded stream is
// identical — refs, counts, and lengths. An Encoder fed the stream in
// slices of slice+1 references must give the same bytes.
func FuzzCompactRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0x00, 0x10, 0x00, 0x00, 0x00}, uint16(0))
	// A run of sequential fetches followed by a data burst.
	seed := make([]byte, 0, 64)
	for i := 0; i < 8; i++ {
		seed = append(seed, 0)
		seed = binary.LittleEndian.AppendUint32(seed, uint32(0x1000+i*4))
	}
	for i := 0; i < 4; i++ {
		seed = append(seed, byte(1+i%2))
		seed = binary.LittleEndian.AppendUint32(seed, uint32(0x40_0000+i*8))
	}
	f.Add(seed, uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, slice uint16) {
		rec := &Recording{}
		for len(data) >= 5 {
			k := Kind(data[0] % 3)
			addr := binary.LittleEndian.Uint32(data[1:5]) &^ 3
			switch k {
			case KindFetch:
				rec.Fetch(addr)
			case KindRead:
				rec.Read(addr)
			default:
				rec.Write(addr)
			}
			data = data[5:]
		}
		compacted := rec.Compact()
		if sliced := encodeSliced(words(rec), func() int { return int(slice) + 1 }, nil, &rec.Counts); !bytes.Equal(sliced, compacted) {
			t.Fatalf("Encoder fed slices of %d: %d bytes differ from Compact's %d", int(slice)+1, len(sliced), len(compacted))
		}
		got, err := Decompact(compacted)
		if err != nil {
			t.Fatalf("Decompact: %v", err)
		}
		if got.Len() != rec.Len() || got.Counts != rec.Counts {
			t.Fatalf("Len/Counts mismatch: %d/%v vs %d/%v", got.Len(), got.Counts, rec.Len(), rec.Counts)
		}
		type ref struct {
			k    Kind
			addr uint32
		}
		var want, have []ref
		rec.Do(func(k Kind, a uint32) { want = append(want, ref{k, a}) })
		got.Do(func(k Kind, a uint32) { have = append(have, ref{k, a}) })
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("ref %d: %+v vs %+v", i, have[i], want[i])
			}
		}
	})
}

// FuzzDecompact feeds arbitrary bytes to the decoder (see
// checkDecoders), seeded with valid recordings and with the crafted
// chunks and miscounted headers of TestDecompactChecks.
func FuzzDecompact(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("JTR2\x01\x00\x00"))
	rec := &Recording{}
	for i := uint32(0); i < 1000; i++ {
		rec.Fetch(0x1000 + i*4)
		if i%7 == 0 {
			rec.Read(0x80_0000 + i*16)
		}
	}
	f.Add(rec.CompactAnnotated([]byte(`{"p":"x"}`)))
	f.Add(record(randomRefs(4, 3000)).Compact())
	for _, c := range craftedChunks {
		f.Add(chunkBlob(c.nRefs, c.nRefs, c.payload))
	}
	for _, m := range miscounted {
		f.Add(chunkBlob(craftedChunks[0].nRefs, m.counted, craftedChunks[0].payload))
	}
	f.Fuzz(checkDecoders)
}

// checkDecoders decodes data both ways the chunk decoder serves:
// through Reader.Next, as Decompact does, and through Reader.split, as
// Replay from a Reader does. Neither may panic or over-allocate. Both
// must reject data with the same error, or both accept it; then it must
// replay to the same statistics either way and re-compact to a
// decodable stream of the same length.
func checkDecoders(t *testing.T, data []byte) {
	t.Helper()
	got, err := Decompact(data)
	streamed := newPairs(t, kernelGeoms)
	rerr := streamedReplay(data, streamed)
	if fmt.Sprint(err) != fmt.Sprint(rerr) {
		t.Fatalf("Decompact error %v, streamed replay error %v", err, rerr)
	}
	if err != nil {
		return
	}
	want := newPairs(t, kernelGeoms)
	got.ReplayAll(want)
	for g, p := range streamed {
		if p.I.Stats() != want[g].I.Stats() || p.D.Stats() != want[g].D.Stats() {
			t.Fatalf("%v: streamed I=%+v D=%+v, decompacted I=%+v D=%+v", kernelGeoms[g],
				p.I.Stats(), p.D.Stats(), want[g].I.Stats(), want[g].D.Stats())
		}
	}
	again, err := Decompact(got.Compact())
	if err != nil {
		t.Fatalf("re-decode of accepted input failed: %v", err)
	}
	if again.Len() != got.Len() || again.Counts != got.Counts {
		t.Fatalf("unstable round-trip: %d vs %d", again.Len(), got.Len())
	}
}

// streamedReplay replays compacted bytes through pairs by Replay from a
// Reader, which decodes each chunk straight into the kernel's streams.
func streamedReplay(data []byte, pairs []Pair) error {
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	return Replay(context.Background(), rd, pairs, nil)
}

// FuzzReaderChunks checks that the streaming Reader yields exactly the
// same word sequence as the materialized decode, regardless of where the
// input's chunk boundaries fall.
func FuzzReaderChunks(f *testing.F) {
	f.Add(uint64(1), 10)
	f.Add(uint64(2), chunkWords)
	f.Add(uint64(3), chunkWords+1)
	f.Fuzz(func(t *testing.T, seed uint64, n int) {
		if n < 0 || n > 3*chunkWords {
			return
		}
		rec := record(randomRefs(seed, n))
		data := rec.Compact()
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var streamed []uint32
		for {
			c, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			streamed = append(streamed, c...)
		}
		direct := words(rec)
		if len(streamed) != len(direct) {
			t.Fatalf("streamed %d words, want %d", len(streamed), len(direct))
		}
		for i := range direct {
			if streamed[i] != direct[i] {
				t.Fatalf("word %d: %#x vs %#x", i, streamed[i], direct[i])
			}
		}
	})
}

// FuzzReplayMatchesScalar decodes the fuzz input into a reference
// stream in four 64 KB windows, one at the base of each §3.1 class
// segment, so most references repeat a block, and requires the replay
// kernel's results, pulled from the packed and the streamed source,
// pushed in random slices, and pushed and flushed at cuts alike, with
// and without attribution, to equal the reference model's over the
// Table-2 grid and the kernel geometries. Each 3-byte record is a kind,
// a run length and a word: the run touches consecutive words, so fetch
// runs compact to run ops, and runs cross the stream buffers' batches
// and split same-block write runs between them; bits 15:14 of a word
// pick the segment. every is the cut period in fetches (0 for 1000).
// Decoding stops at 16K references, four buffers' worth.
func FuzzReplayMatchesScalar(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0x02, 0x10, 0x00, 0x05, 0x10, 0x00, 0x01, 0x10, 0x40}, uint8(1))
	for _, seed := range []uint64{1, 2} {
		var data []byte
		for _, r := range randomRefs(seed, 600) {
			data = append(data, byte(r.k)|byte(r.addr>>2)&0xfc)
			data = binary.LittleEndian.AppendUint16(data, uint16(r.addr>>2))
		}
		f.Add(data, uint8(seed*50))
	}
	// Fetches fill a batch's worth of words up to a read; a write to the
	// same word follows, and conflicting reads then evict the line.
	var edge []byte
	for left := replayBlockWords - 1; left > 0; left -= 64 {
		edge = append(edge, byte(min(left, 64)-1)<<2, 0x00, 0x10)
	}
	edge = append(edge, 1, 0x00, 0x20, 2, 0x00, 0x20)
	for k := byte(1); k <= 8; k++ {
		edge = append(edge, 1, 0x00, 0x20+k)
	}
	f.Add(edge, uint8(0))
	// Reads of 8192 consecutive words leave 4096 survivors at 8-byte
	// blocks, which fill the data stream's buffer exactly, so it flushes
	// on the last. A read and then a write of that block's other word
	// follow: the write finds the buffer empty and must survive to dirty
	// the line, which conflicting reads then evict.
	var flushed []byte
	for w := uint16(0x1000); w < 0x3000; w += 64 {
		flushed = binary.LittleEndian.AppendUint16(append(flushed, 63<<2|1), w)
	}
	flushed = append(flushed, 1, 0xff, 0x2f, 2, 0xff, 0x2f)
	for k := byte(1); k <= 8; k++ {
		flushed = append(flushed, 1, 0xff, 0x2f+k)
	}
	f.Add(flushed, uint8(0))
	// A fetch cuts the stream between a read and a write to its word,
	// in sets every segment shares: the write finds both streams just
	// flushed.
	cut := []byte{0x01, 0x00, 0x10, 0x00, 0x00, 0x00, 0x02, 0x00, 0x10}
	for k := byte(0); k < 4; k++ {
		cut = append(cut, 1, 0x00, 0x10|k<<6, 0, 0x00, 0x10|k<<6)
	}
	f.Add(cut, uint8(1))
	geoms := append(table2Geoms(), kernelGeoms...)
	segments := [4]uint32{mem.SysCodeBase, mem.UserCodeBase, mem.SysDataBase, mem.FrameBase}
	f.Fuzz(func(t *testing.T, data []byte, every uint8) {
		rec := &Recording{}
		for ; len(data) >= 3 && rec.Len() < 1<<14; data = data[3:] {
			word := uint32(binary.LittleEndian.Uint16(data[1:3]))
			for j := uint32(0); j <= uint32(data[0]>>2); j++ {
				w := (word + j) & 0xffff
				addr := segments[w>>14] | w<<2&0xfffc
				switch data[0] & 3 {
				case 0:
					rec.Fetch(addr)
				case 1:
					rec.Read(addr)
				default:
					rec.Write(addr)
				}
			}
		}
		want := scalarReplay(rec, geoms, int(every))
		for name, replay := range replays(t, rec, int(every)) {
			for _, attribute := range []bool{false, true} {
				checkReplay(t, fmt.Sprintf("%s/attribute=%v", name, attribute), replay, geoms, attribute, want)
			}
		}
	})
}
