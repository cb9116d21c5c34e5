package experiments

import (
	"bytes"
	"context"
	"testing"

	"jmtam/internal/cache"
	"jmtam/internal/core"
	"jmtam/internal/trace"
)

// TestCompactRatioBenchmarks is the compaction acceptance bar: on all
// six dataflow benchmarks, under both implementations, the compacted
// recording must be at most 40% of the packed 4 B/ref size.
func TestCompactRatioBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates all benchmarks")
	}
	for _, w := range QuickWorkloads() {
		for _, impl := range []core.Impl{core.ImplMD, core.ImplAM} {
			_, rec, err := RecordOne(w, impl, core.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, impl, err)
			}
			data := rec.Compact()
			packed := 4 * rec.Len()
			ratio := float64(len(data)) / float64(packed)
			t.Logf("%-10s %-3s refs=%9d packed=%9d compact=%9d ratio=%.3f",
				w.Name, impl, rec.Len(), packed, len(data), ratio)
			if ratio > 0.40 {
				t.Errorf("%s/%s: compact ratio %.3f exceeds 0.40", w.Name, impl, ratio)
			}
		}
	}
}

// TestStreamReplayMatchesDirect asserts the full compact → decompact /
// stream → replay pipeline reproduces the direct path's cache
// statistics exactly, for a real benchmark trace across a geometry
// grid.
func TestStreamReplayMatchesDirect(t *testing.T) {
	var geoms []cache.Config
	for _, kb := range []int{1, 8, 64} {
		for _, a := range []int{1, 4} {
			geoms = append(geoms, cache.Config{SizeBytes: kb * 1024, BlockBytes: 64, Assoc: a})
		}
	}
	for _, impl := range []core.Impl{core.ImplMD, core.ImplAM} {
		r, rec, err := RecordOne(Workload{"dtw", 8}, impl, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ReplayFanOutContext(context.Background(), r, rec, geoms, 1); err != nil {
			t.Fatal(err)
		}
		data := rec.Compact()

		// Decompacted recording, replayed the ordinary way.
		dec, err := trace.Decompact(data)
		if err != nil {
			t.Fatal(err)
		}
		rDec := &Run{}
		if err := ReplayFanOutContext(context.Background(), rDec, dec, geoms, 1); err != nil {
			t.Fatal(err)
		}

		// Streamed through a Reader, at two fan-out widths.
		for _, par := range []int{1, 3} {
			streamed, err := ReplayStreamFanOutContext(context.Background(), func() (*trace.Reader, error) {
				return trace.NewReader(bytes.NewReader(data))
			}, geoms, par)
			if err != nil {
				t.Fatal(err)
			}
			for g := range geoms {
				if streamed[g] != r.Caches[g] {
					t.Fatalf("%s par=%d geom %d: streamed %+v, direct %+v", impl, par, g, streamed[g], r.Caches[g])
				}
				if rDec.Caches[g] != r.Caches[g] {
					t.Fatalf("%s geom %d: decompacted %+v, direct %+v", impl, g, rDec.Caches[g], r.Caches[g])
				}
			}
		}
	}
}

// TestCompactStatFields pins the size accounting trace.CompactStat
// reports, which the recording store's peer checks and byte savings
// read.
func TestCompactStatFields(t *testing.T) {
	r := &trace.Recording{}
	for i := uint32(0); i < 1000; i++ {
		r.Fetch(0x2000 + i*4)
	}
	info, err := trace.CompactStat(r.Compact())
	if err != nil {
		t.Fatal(err)
	}
	if info.Refs != 1000 || info.PackedBytes != 4000 || info.Ratio() >= 0.05 {
		t.Fatalf("info = %+v (ratio %.3f)", info, info.Ratio())
	}
}
