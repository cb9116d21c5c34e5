package trace

import (
	"context"
	"slices"
	"sync"
	"testing"

	"jmtam/internal/cache"
	"jmtam/internal/mem"
	"jmtam/internal/rng"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	addrs := []uint32{
		0, 4, 64, mem.UserCodeBase, mem.SysDataBase, mem.HeapBase,
		mem.TopOfMemory - 4,
		1<<31 - 4,   // highest address below the sign bit
		0x8000_0000, // sign bit set
		0xFFFF_FFFC, // 30-bit boundary: addr>>2 == 0x3FFF_FFFF
		0x5555_5554, // alternating bits, word-aligned
	}
	for _, k := range []Kind{KindFetch, KindRead, KindWrite} {
		for _, a := range addrs {
			w := Encode(k, a)
			gk, ga := Decode(w)
			if gk != k || ga != a {
				t.Errorf("Encode(%d, %#x) -> Decode = (%d, %#x)", k, a, gk, ga)
			}
		}
	}
}

// recount classifies every recorded reference again, the reference for
// a recording's Counts.
func recount(rec *Recording) Counts {
	var c Counts
	rec.Do(func(k Kind, addr uint32) {
		switch k {
		case KindFetch:
			c.Fetches[mem.Classify(addr)]++
		case KindRead:
			c.Reads[mem.Classify(addr)]++
		default:
			c.Writes[mem.Classify(addr)]++
		}
	})
	return c
}

func TestRecordingCountsMatchClassify(t *testing.T) {
	var rec Recording
	for i := uint32(0); i < 100; i++ {
		rec.Fetch(mem.UserCodeBase + 4*i)
		rec.Read(mem.HeapBase + 4*i)
		rec.Write(mem.FrameBase + 4*i)
		rec.Read(mem.SysDataBase + 4*(i%8))
		rec.Fetch(mem.SysCodeBase + 4*i)
	}
	if got := recount(&rec); rec.Counts != got {
		t.Errorf("recording counts %+v != recount %+v", rec.Counts, got)
	}
	if rec.Len() != 500 {
		t.Errorf("Len = %d, want 500", rec.Len())
	}
	var none *Recording // a nil recording records nothing
	none.Fetch(mem.UserCodeBase)
	none.Read(mem.HeapBase)
	none.Write(mem.HeapBase)
}

func TestRecordingChunkRollover(t *testing.T) {
	var rec Recording
	n := chunkWords*2 + 17
	for i := 0; i < n; i++ {
		rec.Read(uint32(4 * i))
	}
	if rec.Len() != n {
		t.Fatalf("Len = %d, want %d", rec.Len(), n)
	}
	if len(rec.full) != 2 || len(rec.tail) != 17 {
		t.Errorf("%d full chunks and a tail of %d, want 2 and 17", len(rec.full), len(rec.tail))
	}
	i := 0
	rec.Do(func(k Kind, addr uint32) {
		if k != KindRead || addr != uint32(4*i) {
			t.Fatalf("ref %d = (%d, %#x), want (KindRead, %#x)", i, k, addr, 4*i)
		}
		i++
	})
	if i != n {
		t.Errorf("Do visited %d refs, want %d", i, n)
	}
}

// TestReplayMatchesInlineFanOut drives a synthetic stream through the
// replay kernel and through the inline fan-out it replaces — every
// reference probing every pair as it happens, the scalar reference of
// scalarReplay — and requires identical cache statistics.
func TestReplayMatchesInlineFanOut(t *testing.T) {
	cfgs := []cache.Config{
		{SizeBytes: 1024, BlockBytes: 64, Assoc: 1},
		{SizeBytes: 8192, BlockBytes: 8, Assoc: 4},
	}
	var rec Recording
	// A stream with reuse, conflict misses and dirty evictions.
	for i := uint32(0); i < 3000; i++ {
		rec.Fetch(mem.UserCodeBase + 4*(i%700))
		rec.Read(mem.HeapBase + 64*(i%50))
		if i%3 == 0 {
			rec.Write(mem.FrameBase + 64*(i%90))
		}
		if i%7 == 0 {
			rec.Read(mem.HeapBase + 1024*i%0x10000)
		}
	}
	pairs := newPairs(t, cfgs)
	rec.ReplayAll(pairs)
	want := scalarReplay(&rec, cfgs, testCutEvery)
	for i, cfg := range cfgs {
		if p := pairs[i]; p.I.Stats() != want[i].i || p.D.Stats() != want[i].d {
			t.Errorf("%v: replayed I/D stats %+v/%+v != inline %+v/%+v",
				cfg, p.I.Stats(), p.D.Stats(), want[i].i, want[i].d)
		}
	}
	if want[0].d.Writebacks == 0 {
		t.Error("stream produced no writebacks; test data too small")
	}
}

// TestReplayAllMatchesReplay drives every pair through one grouped
// kernel pass and each pair through a replay of its own, over a stream
// crossing several chunk and replay-block boundaries, and requires
// identical statistics for every pair.
func TestReplayAllMatchesReplay(t *testing.T) {
	var rec Recording
	n := uint32(chunkWords + replayBlockWords + 123)
	for i := uint32(0); i < n; i++ {
		rec.Fetch(mem.UserCodeBase + 4*(i%3000))
		rec.Read(mem.HeapBase + 64*(i%777))
		if i%4 == 0 {
			rec.Write(mem.FrameBase + 64*(i%222))
		}
	}
	cfgs := []cache.Config{
		{SizeBytes: 1024, BlockBytes: 64, Assoc: 1},
		{SizeBytes: 2048, BlockBytes: 32, Assoc: 2},
		{SizeBytes: 8192, BlockBytes: 64, Assoc: 4},
		{SizeBytes: 8192, BlockBytes: 64, Assoc: 8},
	}
	pairs := newPairs(t, cfgs)
	rec.ReplayAll(pairs)
	for i, cfg := range cfgs {
		want := newPairs(t, cfgs[i:i+1])
		if err := Replay(context.Background(), rec.Chunks(), want, nil); err != nil {
			t.Fatal(err)
		}
		if pairs[i].I.Stats() != want[0].I.Stats() {
			t.Errorf("%v: grouped I stats %+v != single %+v", cfg, pairs[i].I.Stats(), want[0].I.Stats())
		}
		if pairs[i].D.Stats() != want[0].D.Stats() {
			t.Errorf("%v: grouped D stats %+v != single %+v", cfg, pairs[i].D.Stats(), want[0].D.Stats())
		}
	}
}

// TestReplaySampledMatchesReplay checks that Flush observes without
// perturbing: a replay sampled by flushing after every 1000th fetch
// ends with the unflushed replay's statistics, and its misses since
// each cut sum, cut by cut, to those of an unflushed replay of the
// stream up to the cut.
func TestReplaySampledMatchesReplay(t *testing.T) {
	var rec Recording
	for i := uint32(0); i < 5000; i++ {
		rec.Fetch(mem.UserCodeBase + 4*(i%700))
		rec.Read(mem.HeapBase + 4*(i%900))
		if i%3 == 0 {
			rec.Write(mem.FrameBase + 4*(i%500))
		}
	}
	cfgs := []cache.Config{{SizeBytes: 1024, BlockBytes: 64, Assoc: 1}}
	want, got := newPairs(t, cfgs), newPairs(t, cfgs)
	if err := Replay(context.Background(), rec.Chunks(), want, nil); err != nil {
		t.Fatal(err)
	}
	samples, err := flushed(&rec, 1000)(got, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, w := got[0], want[0]
	if g.I.Stats() != w.I.Stats() || g.D.Stats() != w.D.Stats() {
		t.Errorf("flushed replay stats differ: I %+v vs %+v, D %+v vs %+v",
			g.I.Stats(), w.I.Stats(), g.D.Stats(), w.D.Stats())
	}
	if len(samples[0]) != 5 {
		t.Errorf("%d cuts for 5000 fetches at every=1000, want 5", len(samples[0]))
	}
	refs := words(&rec)
	var iSum, dSum, fetches uint64
	end := 0
	for _, s := range samples[0] {
		iSum += s.iMiss
		dSum += s.dMiss
		for ; fetches < s.instrs; end++ {
			if k, _ := Decode(refs[end]); k == KindFetch {
				fetches++
			}
		}
		prefix := newPairs(t, cfgs)
		rp, err := NewReplayer(prefix, nil)
		if err != nil {
			t.Fatal(err)
		}
		rp.Feed(refs[:end])
		rp.Close()
		if p := prefix[0]; iSum != p.I.Stats().Misses || dSum != p.D.Stats().Misses {
			t.Errorf("cut at %d fetches: deltas sum to (%d, %d), unflushed replay (%d, %d)",
				s.instrs, iSum, dSum, p.I.Stats().Misses, p.D.Stats().Misses)
		}
	}
}

// TestReleasedChunksNeverLeak records a long stream, releases it, and
// records a shorter one that draws the recycled chunks: the second
// recording reads back exactly its own references and counts, never a
// stale word of the first.
func TestReleasedChunksNeverLeak(t *testing.T) {
	var old Recording
	for i := 0; i < 2*chunkWords+5; i++ {
		old.Write(mem.HeapBase + uint32(4*i))
	}
	old.Release()
	if old.Len() != 0 || old.TotalWrites() != 2*chunkWords+5 {
		t.Errorf("after Release: Len = %d, writes = %d; want an empty stream and kept counts",
			old.Len(), old.TotalWrites())
	}
	for _, n := range []int{0, 1, 7, chunkWords, chunkWords + 3} {
		var rec Recording
		for i := 0; i < n; i++ {
			rec.Fetch(mem.UserCodeBase + uint32(4*(i%100)))
		}
		if rec.Len() != n {
			t.Errorf("n=%d: Len = %d", n, rec.Len())
		}
		i := 0
		rec.Do(func(k Kind, addr uint32) {
			if want := mem.UserCodeBase + uint32(4*(i%100)); k != KindFetch || addr != want {
				t.Fatalf("n=%d: ref %d = (%d, %#x), want (KindFetch, %#x)", n, i, k, addr, want)
			}
			i++
		})
		if got := recount(&rec); i != n || rec.Counts != got {
			t.Errorf("n=%d: Do visited %d refs, counts %+v, recount %+v", n, i, rec.Counts, got)
		}
		rec.Release()
	}
}

// TestReleaseConcurrent records and releases from two goroutines at
// once, so the race detector sees the shared chunk pool.
func TestReleaseConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				var rec Recording
				n := chunkWords + 100*g + round
				for i := 0; i < n; i++ {
					rec.Read(mem.FrameBase + uint32(4*(g+2*i)))
				}
				i := 0
				rec.Do(func(_ Kind, addr uint32) {
					if addr != mem.FrameBase+uint32(4*(g+2*i)) {
						t.Errorf("goroutine %d: ref %d = %#x", g, i, addr)
					}
					i++
				})
				if i != n {
					t.Errorf("goroutine %d: %d refs, want %d", g, i, n)
				}
				rec.Release()
			}
		}(g)
	}
	wg.Wait()
}

// TestDrainSeesEveryReferenceOnce records a stream of three chunks and
// more into a drained recording, flushing at random points as well as
// when chunks fill: the drain must receive every reference exactly
// once and in order, Len and Counts must count them all, and the
// recording must hold one chunk throughout and none of the stream.
func TestDrainSeesEveryReferenceOnce(t *testing.T) {
	refs := randomRefs(9, 3*chunkWords+5)
	want := record(refs)
	var got []uint32
	rec := &Recording{}
	rec.Drain(func(ws []uint32) { got = append(got, ws...) })
	src := rng.New(9)
	flushes := 0
	for i, r := range refs {
		record1(rec, r)
		if src.Uint64()%4096 == 0 {
			rec.Flush()
			flushes++
		}
		if rec.Len() != i+1 || len(rec.full) != 0 || cap(rec.tail) != chunkWords {
			t.Fatalf("after ref %d: Len = %d, %d full chunks and a tail of cap %d; want %d and one chunk", i, rec.Len(), len(rec.full), cap(rec.tail), i+1)
		}
	}
	rec.Flush()
	rec.Flush() // a second flush hands over nothing
	if flushes == 0 {
		t.Fatal("no flush between seals")
	}
	if w := words(want); !slices.Equal(got, w) {
		t.Errorf("drain received %d refs, want the %d recorded in order", len(got), len(w))
	}
	if rec.Len() != len(refs) || rec.Counts != want.Counts {
		t.Errorf("Len = %d, Counts = %+v; want %d and %+v", rec.Len(), rec.Counts, len(refs), want.Counts)
	}
	if n := len(words(rec)); n != 0 {
		t.Errorf("recording still holds %d drained refs", n)
	}
	rec.Release()
}

// record1 records one reference into rec.
func record1(rec *Recording, r ref) {
	switch r.k {
	case KindFetch:
		rec.Fetch(r.addr)
	case KindRead:
		rec.Read(r.addr)
	default:
		rec.Write(r.addr)
	}
}

// words returns the packed words rec holds, in order.
func words(rec *Recording) []uint32 {
	var out []uint32
	rec.Do(func(k Kind, addr uint32) { out = append(out, Encode(k, addr)) })
	return out
}
