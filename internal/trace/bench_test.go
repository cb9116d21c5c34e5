package trace

import (
	"bytes"
	"context"
	"testing"

	"jmtam/internal/cache"
	"jmtam/internal/mem"
	"jmtam/internal/rng"
)

// benchRecording synthesizes a recording shaped like the simulator's
// output: a fetch per instruction over loopy code, data reads with
// reuse, and a write every few instructions.
func benchRecording(n int) *Recording {
	rec := &Recording{}
	for i := uint32(0); rec.Len() < n; i++ {
		rec.Fetch(mem.UserCodeBase + 4*(i%2048))
		rec.Read(mem.HeapBase + 64*(i%512))
		if i%3 == 0 {
			rec.Write(mem.FrameBase + 4*(i%1024))
		}
	}
	return rec
}

// table2Geoms mirrors the default sweep grid: 8 sizes x 3 ways.
func table2Geoms() []cache.Config {
	var geoms []cache.Config
	for _, kb := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		for _, a := range []int{1, 2, 4} {
			geoms = append(geoms, cache.Config{SizeBytes: kb * 1024, BlockBytes: 64, Assoc: a})
		}
	}
	return geoms
}

// runRecording synthesizes a recording whose fetches come in real
// straight-line runs, which compact to run ops: blocks of 2 to 13
// instructions at branch targets in a 16 KB code region, each followed
// by a read of a frame slot and then a write to that slot or a heap
// read.
func runRecording(n int) *Recording {
	rec := &Recording{}
	src := rng.New(1)
	for rec.Len() < n {
		pc := mem.UserCodeBase + 4*uint32(src.Uint64()%4096)
		for j := 2 + src.Uint64()%12; j > 0; j-- {
			rec.Fetch(pc)
			pc += 4
		}
		slot := mem.FrameBase + 4*uint32(src.Uint64()%1024)
		rec.Read(slot)
		if src.Uint64()%3 == 0 {
			rec.Write(slot)
		} else {
			rec.Read(mem.HeapBase + 4*uint32(src.Uint64()%(1<<16)))
		}
	}
	return rec
}

// benchReplay measures one kernel pass over a recording of refs
// references per iteration, opened afresh by open, through fresh pairs
// of the given geometries, attributing misses when attribute is set.
func benchReplay(b *testing.B, refs int, open func() (Source, error), geoms []cache.Config, attribute bool) {
	b.SetBytes(int64(refs) * 4 * int64(len(geoms)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs := make([]Pair, len(geoms))
		for j, g := range geoms {
			p, err := NewPair(g)
			if err != nil {
				b.Fatal(err)
			}
			pairs[j] = p
		}
		src, err := open()
		if err != nil {
			b.Fatal(err)
		}
		var h *Hooks
		if attribute {
			h = &Hooks{Misses: make([]MissCounts, len(pairs))}
		}
		if err := Replay(context.Background(), src, pairs, h); err != nil {
			b.Fatal(err)
		}
	}
}

// packedReplay measures the kernel over a packed 1M-reference
// benchRecording.
func packedReplay(b *testing.B, geoms []cache.Config, attribute bool) {
	rec := benchRecording(1 << 20)
	benchReplay(b, rec.Len(), func() (Source, error) { return rec.Chunks(), nil }, geoms, attribute)
}

// BenchmarkReplay measures the kernel on a single geometry.
func BenchmarkReplay(b *testing.B) {
	packedReplay(b, []cache.Config{{SizeBytes: 8192, BlockBytes: 64, Assoc: 4}}, false)
}

// BenchmarkReplayAll measures the kernel over the full Table-2 grid:
// one pass over the stream drives all 24 geometries. Like
// BenchmarkBank's, its synthetic stream cycles through a few blocks at
// fixed strides, so the banks' branches predict well here as they do
// not on a real stream; BenchmarkReplayPaper (internal/experiments)
// replays the paper's own streams.
func BenchmarkReplayAll(b *testing.B) {
	packedReplay(b, table2Geoms(), false)
}

// BenchmarkReplayAttributed measures the kernel as a metrics-collecting
// sweep runs it: BenchmarkReplayAll with miss attribution, on banks
// whose stages all run the generic kernel.
func BenchmarkReplayAttributed(b *testing.B) {
	packedReplay(b, table2Geoms(), true)
}

// BenchmarkReplayStream measures the streamed kernel as a warm sweep
// unit runs it: a Reader over the compacted form of a 1M-reference
// runRecording, decoded and replayed through the Table-2 grid.
func BenchmarkReplayStream(b *testing.B) {
	rec := runRecording(1 << 20)
	data := rec.Compact()
	benchReplay(b, rec.Len(), func() (Source, error) { return NewReader(bytes.NewReader(data)) }, table2Geoms(), false)
}
