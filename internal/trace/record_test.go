package trace

import (
	"context"
	"maps"
	"testing"

	"jmtam/internal/cache"
	"jmtam/internal/mem"
	"jmtam/internal/obs"
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

func TestRecordingCountsMatchCollector(t *testing.T) {
	var rec Recording
	var col Collector
	for i := uint32(0); i < 100; i++ {
		for _, tr := range []machineTracer{&rec, &col} {
			tr.Fetch(mem.UserCodeBase + 4*i)
			tr.Read(mem.HeapBase + 4*i)
			tr.Write(mem.FrameBase + 4*i)
			tr.Read(mem.SysDataBase + 4*(i%8))
		}
	}
	if rec.Counts != col.Counts {
		t.Errorf("recording counts %+v != collector counts %+v", rec.Counts, col.Counts)
	}
	if rec.Len() != 400 {
		t.Errorf("Len = %d, want 400", rec.Len())
	}
}

// machineTracer mirrors machine.Tracer without importing the package.
type machineTracer interface {
	Fetch(uint32)
	Read(uint32)
	Write(uint32)
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
	if rec.Bytes() < 4*n {
		t.Errorf("Bytes = %d, below payload %d", rec.Bytes(), 4*n)
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

// TestReplayMatchesInlineFanOut drives an identical synthetic stream
// through an inline Collector pair and a record/replay pass, and
// requires identical cache statistics.
func TestReplayMatchesInlineFanOut(t *testing.T) {
	cfgs := []cache.Config{
		{SizeBytes: 1024, BlockBytes: 64, Assoc: 1},
		{SizeBytes: 8192, BlockBytes: 8, Assoc: 4},
	}
	var col Collector
	for _, cfg := range cfgs {
		if _, err := col.AddPair(cfg); err != nil {
			t.Fatal(err)
		}
	}
	var rec Recording
	emit := func(tr machineTracer) {
		// A stream with reuse, conflict misses and dirty evictions.
		for i := uint32(0); i < 3000; i++ {
			tr.Fetch(mem.UserCodeBase + 4*(i%700))
			tr.Read(mem.HeapBase + 64*(i%50))
			if i%3 == 0 {
				tr.Write(mem.FrameBase + 64*(i%90))
			}
			if i%7 == 0 {
				tr.Read(mem.HeapBase + 1024*i%0x10000)
			}
		}
	}
	emit(&col)
	emit(&rec)
	pairs := make([]Pair, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if pairs[i], err = NewPair(cfg); err != nil {
			t.Fatal(err)
		}
	}
	rec.ReplayAll(pairs)
	for i, cfg := range cfgs {
		p, want := pairs[i], col.Pairs[i]
		if p.I.Stats() != want.I.Stats() {
			t.Errorf("%v: replayed I stats %+v != inline %+v", cfg, p.I.Stats(), want.I.Stats())
		}
		if p.D.Stats() != want.D.Stats() {
			t.Errorf("%v: replayed D stats %+v != inline %+v", cfg, p.D.Stats(), want.D.Stats())
		}
	}
	if rec.Counts != col.Counts {
		t.Errorf("counts diverged: %+v vs %+v", rec.Counts, col.Counts)
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

// TestReplaySampledMatchesReplay checks the sampling hook observes
// without perturbing: statistics match an unhooked replay, samples are
// monotone, and their miss deltas sum to the total misses.
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
	var samples int
	var iSum, dSum, lastInstr uint64
	h := &Hooks{SampleEvery: 1000, Sample: func(_ int, instrs, iMiss, dMiss uint64) {
		samples++
		iSum += iMiss
		dSum += dMiss
		if instrs < lastInstr {
			t.Errorf("sample timestamps not monotone: %d after %d", instrs, lastInstr)
		}
		lastInstr = instrs
	}}
	if err := Replay(context.Background(), rec.Chunks(), got, h); err != nil {
		t.Fatal(err)
	}
	g, w := got[0], want[0]
	if g.I.Stats() != w.I.Stats() || g.D.Stats() != w.D.Stats() {
		t.Errorf("sampled replay stats differ: I %+v vs %+v, D %+v vs %+v",
			g.I.Stats(), w.I.Stats(), g.D.Stats(), w.D.Stats())
	}
	if iSum != w.I.Stats().Misses || dSum != w.D.Stats().Misses {
		t.Errorf("sample sums (%d, %d) != total misses (%d, %d)",
			iSum, dSum, w.I.Stats().Misses, w.D.Stats().Misses)
	}
	if samples < 5 {
		t.Errorf("only %d samples for 5000 fetches at every=1000", samples)
	}
}

func TestMissDensityTrackEmitsCounters(t *testing.T) {
	var rec Recording
	for i := uint32(0); i < 3000; i++ {
		rec.Fetch(mem.UserCodeBase + 4*(i%700))
		rec.Read(mem.HeapBase + 4*(i%900))
	}
	cfg := cache.Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1}
	for _, label := range []string{"", "nic"} {
		b := obs.NewEventBuffer()
		p, err := rec.MissDensityTrack(b, 3, cfg, 1000, label)
		if err != nil {
			t.Fatal(err)
		}
		if p.Misses() == 0 {
			t.Fatal("no misses; test data too small")
		}
		pre := ""
		if label != "" {
			pre = label + "."
		}
		names := map[string]int{}
		for _, e := range b.Events() {
			if e.Ph != obs.PhCounter {
				t.Errorf("unexpected phase %c", e.Ph)
				continue
			}
			if e.Pid != 3 {
				t.Errorf("pid = %d, want 3", e.Pid)
			}
			names[e.Name]++
		}
		// Two series (I and D), 3 full samples each for 3000 fetches.
		want := map[string]int{pre + "I-miss density": 3, pre + "D-miss density": 3}
		if !maps.Equal(names, want) {
			t.Errorf("label %q: counter tracks %v, want %v", label, names, want)
		}
	}
}
