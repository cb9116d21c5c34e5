package trace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"jmtam/internal/cache"
	"jmtam/internal/cache/cachetest"
	"jmtam/internal/mem"
	"jmtam/internal/rng"
)

// kernelGeoms spans both bank stage depths across four block sizes:
// stacks four deep (1-, 2- and 4-way members) and deeper (8- and
// 16-way), several stages to a block size.
var kernelGeoms = []cache.Config{
	{SizeBytes: 1 << 10, BlockBytes: 64, Assoc: 1},
	{SizeBytes: 8 << 10, BlockBytes: 64, Assoc: 4},
	{SizeBytes: 2 << 10, BlockBytes: 32, Assoc: 2},
	{SizeBytes: 4 << 10, BlockBytes: 16, Assoc: 8},
	{SizeBytes: 1 << 10, BlockBytes: 16, Assoc: 1},
	{SizeBytes: 16 << 10, BlockBytes: 64, Assoc: 2},
	{SizeBytes: 2 << 10, BlockBytes: 8, Assoc: 4},
	{SizeBytes: 64 << 10, BlockBytes: 64, Assoc: 16},
}

// sample is one pair's misses at a cut: the fetches so far and the I-
// and D-misses since the previous cut.
type sample struct{ instrs, iMiss, dMiss uint64 }

// outcome is everything one pair's replay can be observed to produce.
type outcome struct {
	i, d    cache.Stats
	misses  MissCounts
	samples []sample
}

const testCutEvery = 97

// cutPeriod is the cut period for every: every-th fetch, or 1000 for 0.
func cutPeriod(every int) uint64 {
	if every > 0 {
		return uint64(every)
	}
	return 1000
}

// scalarReplay is the reference: Recording.Do plus one access of the
// reference model per reference, attributing misses inline and
// sampling them after every every-th fetch (see cutPeriod).
func scalarReplay(rec *Recording, geoms []cache.Config, every int) []outcome {
	period := cutPeriod(every)
	out := make([]outcome, len(geoms))
	for g, cfg := range geoms {
		ic, dc := cachetest.New(cfg), cachetest.New(cfg)
		o := &out[g]
		var fetches, iMiss, dMiss uint64
		rec.Do(func(k Kind, addr uint32) {
			cls := mem.Classify(addr)
			switch k {
			case KindFetch:
				if !ic.Access(addr, false) {
					o.misses.Fetch[cls]++
					iMiss++
				}
				fetches++
				if fetches%period == 0 {
					o.samples = append(o.samples, sample{fetches, iMiss, dMiss})
					iMiss, dMiss = 0, 0
				}
			case KindRead:
				if !dc.Access(addr, false) {
					o.misses.Read[cls]++
					dMiss++
				}
			default:
				if !dc.Access(addr, true) {
					o.misses.Write[cls]++
					dMiss++
				}
			}
		})
		o.i, o.d = ic.Stats(), dc.Stats()
	}
	return out
}

// checkReplay replays through fresh pairs of geoms, attributing misses
// when attribute is set, and requires cache statistics, miss
// attribution and the replay's samples at its cuts, if it cuts,
// identical to want.
func checkReplay(t *testing.T, name string, replay replayFunc, geoms []cache.Config, attribute bool, want []outcome) {
	t.Helper()
	pairs := newPairs(t, geoms)
	var misses []MissCounts
	if attribute {
		misses = make([]MissCounts, len(geoms))
	}
	samples, err := replay(pairs, misses)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for g, p := range pairs {
		w := want[g]
		if p.I.Stats() != w.i || p.D.Stats() != w.d {
			t.Errorf("%s geom %v: stats I=%+v D=%+v, want I=%+v D=%+v",
				name, geoms[g], p.I.Stats(), p.D.Stats(), w.i, w.d)
		}
		if misses != nil && misses[g] != w.misses {
			t.Errorf("%s geom %v: attribution %+v, want %+v", name, geoms[g], misses[g], w.misses)
		}
		if samples != nil && !slices.Equal(samples[g], w.samples) {
			t.Errorf("%s geom %v: %d samples %v, want %d %v",
				name, geoms[g], len(samples[g]), samples[g], len(w.samples), w.samples)
		}
	}
}

// sources opens the recording as each kind of chunk source Replay
// pulls: its packed chunks and a Reader over its compacted bytes.
func sources(t *testing.T, rec *Recording) map[string]func() Source {
	compacted := rec.Compact()
	return map[string]func() Source{
		"packed": rec.Chunks,
		"streamed": func() Source {
			rd, err := NewReader(bytes.NewReader(compacted))
			if err != nil {
				t.Fatal(err)
			}
			return rd
		},
	}
}

// replayFunc replays one stream through fresh pairs, attributing misses
// into misses unless it is nil. One that cuts the stream returns each
// pair's samples, cut by cut; one that does not returns nil.
type replayFunc func(pairs []Pair, misses []MissCounts) ([][]sample, error)

// replays returns every way the kernel takes the recording: Replay
// pulling each of its sources, and a Replayer it is pushed to, in
// random slices (see pushed) or cut after every every-th fetch (see
// flushed).
func replays(t *testing.T, rec *Recording, every int) map[string]replayFunc {
	out := map[string]replayFunc{"pushed": pushed(rec, uint64(rec.Len())), "flushed": flushed(rec, every)}
	for name, open := range sources(t, rec) {
		out[name] = func(pairs []Pair, misses []MissCounts) ([][]sample, error) {
			return nil, Replay(context.Background(), open(), pairs, misses)
		}
	}
	return out
}

// pushed feeds rec's references to a Replayer in slices of random
// length: empty, of one reference, of up to 64, and of up to two
// chunks, which cross the recording's chunk boundaries.
func pushed(rec *Recording, seed uint64) replayFunc {
	refs := words(rec)
	return func(pairs []Pair, misses []MissCounts) ([][]sample, error) {
		rp, err := NewReplayer(pairs, misses)
		if err != nil {
			return nil, err
		}
		src := rng.New(seed)
		for rest := refs; len(rest) > 0; {
			var n int
			switch src.Uint64() % 4 {
			case 0:
			case 1:
				n = 1
			case 2:
				n = 1 + int(src.Uint64()%64)
			default:
				n = 1 + int(src.Uint64()%(2*chunkWords))
			}
			n = min(n, len(rest))
			rp.Feed(rest[:n])
			rest = rest[n:]
		}
		rp.Close()
		return nil, nil
	}
}

// flushed feeds rec's references to a Replayer cut after every
// every-th fetch (see cutPeriod), counting the fetches the kernel
// strips: it feeds the part up to each cut, calls Flush, and samples
// each pair's misses since the previous cut.
func flushed(rec *Recording, every int) replayFunc {
	refs, period := words(rec), cutPeriod(every)
	return func(pairs []Pair, misses []MissCounts) ([][]sample, error) {
		rp, err := NewReplayer(pairs, misses)
		if err != nil {
			return nil, err
		}
		samples := make([][]sample, len(pairs))
		last := make([][2]uint64, len(pairs))
		var fetches uint64
		start := 0
		for i, w := range refs {
			if k, _ := Decode(w); k != KindFetch {
				continue
			}
			if fetches++; fetches%period != 0 {
				continue
			}
			rp.Feed(refs[start : i+1])
			rp.Flush()
			start = i + 1
			for g, p := range pairs {
				im, dm := p.I.Stats().Misses, p.D.Stats().Misses
				samples[g] = append(samples[g], sample{fetches, im - last[g][0], dm - last[g][1]})
				last[g] = [2]uint64{im, dm}
			}
		}
		rp.Feed(refs[start:])
		rp.Close()
		return samples, nil
	}
}

func newPairs(t *testing.T, geoms []cache.Config) []Pair {
	t.Helper()
	pairs := make([]Pair, len(geoms))
	for i, g := range geoms {
		var err error
		if pairs[i], err = NewPair(g); err != nil {
			t.Fatal(err)
		}
	}
	return pairs
}

// TestReplayKernelEquivalence drives the replay kernel over every
// combination of input (pulled from either chunk source, pushed in
// random slices, or pushed and flushed at cuts), attribution on or off,
// geometry set and trace — the random traces' lengths straddle the
// stream-buffer and chunk boundaries — and requires cache statistics,
// miss attribution and the samples at the cuts identical to the
// reference model's.
func TestReplayKernelEquivalence(t *testing.T) {
	type namedTrace struct {
		name string
		rec  *Recording
	}
	var traces []namedTrace
	for _, n := range []int{0, 1, replayBlockWords - 1, replayBlockWords + 1,
		chunkWords - 1, chunkWords + 1, 2*chunkWords + 7} {
		traces = append(traces, namedTrace{fmt.Sprintf("n=%d", n), record(randomRefs(uint64(n)+11, n))})
	}
	// A trace that ends inside a straight-line fetch run whose crossings
	// of 8-byte blocks overflow a stream buffer: the run's survivors are
	// flushed mid-run, and the rest only at the end of the stream.
	longRun := randomRefs(3, 1000)
	for pc := uint32(0x10_0000); len(longRun) < 1000+3*replayBlockWords; pc += 4 {
		longRun = append(longRun, ref{KindFetch, pc})
	}
	traces = append(traces, namedTrace{"longrun", record(longRun)})
	for _, tr := range traces {
		rec := tr.rec
		runs := replays(t, rec, testCutEvery)
		// The fourth set is the Table-2 grid, ten stages in one bank; the
		// last puts a second block size behind an 8-byte one.
		for _, geoms := range [][]cache.Config{kernelGeoms[:1], kernelGeoms[:3], kernelGeoms, table2Geoms(),
			{{SizeBytes: 1 << 10, BlockBytes: 8, Assoc: 1}, {SizeBytes: 8 << 10, BlockBytes: 64, Assoc: 4}}} {
			want := scalarReplay(rec, geoms, testCutEvery)
			for _, how := range []string{"packed", "streamed", "pushed", "flushed"} {
				for _, attribute := range []bool{false, true} {
					name := fmt.Sprintf("%s/geoms=%d/%s/attribute=%v", tr.name, len(geoms), how, attribute)
					checkReplay(t, name, runs[how], geoms, attribute, want)
				}
			}
		}
	}
}

// TestReplayCancelled pins cancellation on every kernel path: an
// already-cancelled context returns its error before any chunk is
// consumed, with or without attribution.
func TestReplayCancelled(t *testing.T) {
	rec := record(randomRefs(5, chunkWords+1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for srcName, open := range sources(t, rec) {
		for _, misses := range [][]MissCounts{nil, make([]MissCounts, 1)} {
			pairs := newPairs(t, kernelGeoms[:1])
			if err := Replay(ctx, open(), pairs, misses); !errors.Is(err, context.Canceled) {
				t.Errorf("%s/attribute=%v: err = %v, want context.Canceled", srcName, misses != nil, err)
			}
			if n := pairs[0].I.Stats().Accesses + pairs[0].D.Stats().Accesses; n != 0 {
				t.Errorf("%s/attribute=%v: %d accesses replayed after cancellation", srcName, misses != nil, n)
			}
		}
	}
}

// TestReplaySourceError checks a corrupt stream surfaces the source's
// decode error instead of a silently short replay.
func TestReplaySourceError(t *testing.T) {
	data := record(randomRefs(6, chunkWords+1)).Compact()
	rd, err := NewReader(bytes.NewReader(data[:len(data)-3]))
	if err != nil {
		t.Fatal(err)
	}
	if err := Replay(context.Background(), rd, newPairs(t, kernelGeoms[:1]), nil); err == nil {
		t.Error("truncated stream replayed without error")
	}
}
