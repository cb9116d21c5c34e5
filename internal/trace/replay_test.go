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

// sample is one miss-density sample as the Sample hook reports it.
type sample struct{ instrs, iMiss, dMiss uint64 }

// outcome is everything one pair's replay can be observed to produce.
type outcome struct {
	i, d    cache.Stats
	misses  MissCounts
	samples []sample
}

const testSampleEvery = 97

// scalarReplay is the reference: Recording.Do plus one access of the
// reference model per reference, attributing misses inline and
// sampling them as Hooks says, with SampleEvery set to every.
func scalarReplay(rec *Recording, geoms []cache.Config, every int) []outcome {
	period := uint64(1000)
	if every > 0 {
		period = uint64(every)
	}
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
		if iMiss != 0 || dMiss != 0 {
			o.samples = append(o.samples, sample{fetches, iMiss, dMiss})
		}
		o.i, o.d = ic.Stats(), dc.Stats()
	}
	return out
}

// hookSets names the hook combinations checkReplay takes.
var hookSets = []string{"none", "attribution", "sampling", "both"}

// checkReplay replays through fresh pairs of geoms with the named hook
// set, sampling with SampleEvery set to every, and requires cache
// statistics, miss attribution and density samples identical to want,
// and samples that arrive cut by cut, in pair order within a cut.
func checkReplay(t *testing.T, name string, replay replayFunc, geoms []cache.Config, hook string, every int, want []outcome) {
	t.Helper()
	pairs := newPairs(t, geoms)
	h := &Hooks{SampleEvery: every}
	samples := make([][]sample, len(geoms))
	type call struct {
		pair   int
		instrs uint64
	}
	var calls []call
	if hook == "attribution" || hook == "both" {
		h.Misses = make([]MissCounts, len(geoms))
	}
	if hook == "sampling" || hook == "both" {
		h.Sample = func(pair int, instrs, iMiss, dMiss uint64) {
			samples[pair] = append(samples[pair], sample{instrs, iMiss, dMiss})
			calls = append(calls, call{pair, instrs})
		}
	}
	if err := replay(pairs, h); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for g, p := range pairs {
		w := want[g]
		if p.I.Stats() != w.i || p.D.Stats() != w.d {
			t.Errorf("%s geom %v: stats I=%+v D=%+v, want I=%+v D=%+v",
				name, geoms[g], p.I.Stats(), p.D.Stats(), w.i, w.d)
		}
		if h.Misses != nil && h.Misses[g] != w.misses {
			t.Errorf("%s geom %v: attribution %+v, want %+v", name, geoms[g], h.Misses[g], w.misses)
		}
		if h.Sample != nil && !slices.Equal(samples[g], w.samples) {
			t.Errorf("%s geom %v: %d samples %v, want %d %v",
				name, geoms[g], len(samples[g]), samples[g], len(w.samples), w.samples)
		}
	}
	// A later pair continues the cut; an earlier one starts the next.
	for k := 1; k < len(calls); k++ {
		prev, cur := calls[k-1], calls[k]
		if cur.pair > prev.pair && cur.instrs != prev.instrs || cur.pair <= prev.pair && cur.instrs < prev.instrs {
			t.Errorf("%s: sample of pair %d at %d follows pair %d at %d", name, cur.pair, cur.instrs, prev.pair, prev.instrs)
			break
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

// replayFunc replays one stream through fresh pairs with hooks.
type replayFunc func(pairs []Pair, h *Hooks) error

// replays returns every way the kernel takes the recording: Replay
// pulling each of its sources, and a Replayer it is pushed to (see
// pushed).
func replays(t *testing.T, rec *Recording) map[string]replayFunc {
	out := map[string]replayFunc{"pushed": pushed(rec, uint64(rec.Len()))}
	for name, open := range sources(t, rec) {
		out[name] = func(pairs []Pair, h *Hooks) error { return Replay(context.Background(), open(), pairs, h) }
	}
	return out
}

// pushed feeds rec's references to a Replayer in slices of random
// length: empty, of one reference, of up to 64, and of up to two
// chunks, which cross the recording's chunk boundaries.
func pushed(rec *Recording, seed uint64) replayFunc {
	refs := words(rec)
	return func(pairs []Pair, h *Hooks) error {
		rp, err := NewReplayer(pairs, h)
		if err != nil {
			return err
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
		return nil
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
// combination of input (pulled from either chunk source, or pushed in
// random slices), hook set, geometry set and trace — the random
// traces' lengths straddle the stream-buffer and chunk boundaries — and
// requires cache statistics, miss attribution and density samples
// identical to the reference model's.
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
		runs := replays(t, rec)
		// The fourth set is the Table-2 grid, ten stages in one bank; the
		// last puts a second block size behind an 8-byte one.
		for _, geoms := range [][]cache.Config{kernelGeoms[:1], kernelGeoms[:3], kernelGeoms, table2Geoms(),
			{{SizeBytes: 1 << 10, BlockBytes: 8, Assoc: 1}, {SizeBytes: 8 << 10, BlockBytes: 64, Assoc: 4}}} {
			want := scalarReplay(rec, geoms, testSampleEvery)
			for _, how := range []string{"packed", "streamed", "pushed"} {
				for _, hook := range hookSets {
					name := fmt.Sprintf("%s/geoms=%d/%s/%s", tr.name, len(geoms), how, hook)
					checkReplay(t, name, runs[how], geoms, hook, testSampleEvery, want)
				}
			}
		}
	}
}

// TestReplayCancelled pins cancellation on every kernel path: an
// already-cancelled context returns its error before any chunk is
// consumed, with or without hooks.
func TestReplayCancelled(t *testing.T) {
	rec := record(randomRefs(5, chunkWords+1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hooks := map[string]*Hooks{
		"none":        nil,
		"attribution": {Misses: make([]MissCounts, 1)},
		"sampling":    {Sample: func(int, uint64, uint64, uint64) { t.Error("sample emitted after cancellation") }},
	}
	for srcName, open := range sources(t, rec) {
		for hook, h := range hooks {
			pairs := newPairs(t, kernelGeoms[:1])
			if err := Replay(ctx, open(), pairs, h); !errors.Is(err, context.Canceled) {
				t.Errorf("%s/%s: err = %v, want context.Canceled", srcName, hook, err)
			}
			if n := pairs[0].I.Stats().Accesses + pairs[0].D.Stats().Accesses; n != 0 {
				t.Errorf("%s/%s: %d accesses replayed after cancellation", srcName, hook, n)
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
