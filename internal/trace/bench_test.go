package trace

import (
	"context"
	"testing"

	"jmtam/internal/cache"
	"jmtam/internal/mem"
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

// benchReplay measures one kernel pass over a 1M-reference recording
// per iteration, through fresh pairs of the given geometries.
func benchReplay(b *testing.B, geoms []cache.Config) {
	rec := benchRecording(1 << 20)
	b.SetBytes(int64(rec.Len()) * 4 * int64(len(geoms)))
	for i := 0; i < b.N; i++ {
		pairs := make([]Pair, len(geoms))
		for j, g := range geoms {
			p, err := NewPair(g)
			if err != nil {
				b.Fatal(err)
			}
			pairs[j] = p
		}
		if err := Replay(context.Background(), rec.Chunks(), pairs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay measures the kernel on a single geometry.
func BenchmarkReplay(b *testing.B) {
	benchReplay(b, []cache.Config{{SizeBytes: 8192, BlockBytes: 64, Assoc: 4}})
}

// BenchmarkReplayAll measures the kernel over the full Table-2 grid:
// one pass over the stream drives all 24 geometries.
func BenchmarkReplayAll(b *testing.B) {
	benchReplay(b, table2Geoms())
}
