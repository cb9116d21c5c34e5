package experiments

import (
	"bytes"
	"context"
	"io"
	"testing"

	"jmtam/internal/cache"
	"jmtam/internal/core"
	"jmtam/internal/trace"
)

// BenchmarkRecord measures the record path alone: the paper-argument
// one-node simulations of the twelve MD and AM recordings of a paper
// sweep, each with a trace recording attached, and no replay. Run it on
// one goroutine for a profile of the interpreter and its reference
// sink:
//
//	go test -run '^$' -bench Record -cpu 1 -cpuprofile f ./internal/experiments/
func BenchmarkRecord(b *testing.B) {
	b.ReportAllocs()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		for _, w := range PaperWorkloads() {
			for _, impl := range []core.Impl{core.ImplMD, core.ImplAM} {
				r, rec, err := RecordOne(w, impl, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				instrs += r.Instructions
				rec.Release()
			}
		}
	}
	b.ReportMetric(float64(instrs)/1e6/b.Elapsed().Seconds(), "Minstr/s")
}

// BenchmarkNodeRatio measures a node-ratio pass as the mesh benchmark
// runs one, at quick scale: md, am, offload and aa on an 8-node mesh
// through one geometry, am and offload sharing one simulation.
func BenchmarkNodeRatio(b *testing.B) {
	b.ReportAllocs()
	impls := []core.Impl{core.ImplMD, core.ImplAM, core.ImplOffload, core.ImplAA}
	geom := cache.Config{SizeBytes: 8 << 10, BlockBytes: 64, Assoc: 4}
	for i := 0; i < b.N; i++ {
		if _, err := NodeRatioSweep(QuickWorkloads(), impls, []int{8}, geom, 24, core.Options{}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayPaper measures the replay kernel on the paper's own
// streams: the twelve paper-scale MD and AM recordings of a paper
// sweep, recorded once, untimed, and held compacted as the recording
// store holds them. Each pass replays every one through fresh pairs of
// the 24-geometry grid, and the benchmark reports the time per
// reference. "stream" pulls each through trace.Replay from a Reader,
// which decodes straight into the kernel, as a warm sweep unit does;
// "packed" decodes each chunk and feeds it to a trace.Replayer, as a
// recording's drain feeds one; "decode" only decodes each chunk through
// Reader.Next, the same loop "stream" runs without the strip, so it
// reads the decoder's own share of both. Real streams spread their
// references over many sets and ranks, so the banks' branches predict
// worse here than on the synthetic streams of BenchmarkBank and
// BenchmarkReplayAll. Run it on one goroutine:
//
//	go test -run '^$' -bench ReplayPaper -cpu 1 ./internal/experiments/
func BenchmarkReplayPaper(b *testing.B) {
	var blobs [][]byte
	refs := 0
	for _, w := range PaperWorkloads() {
		for _, impl := range paperImpls() {
			_, rec, err := RecordOne(w, impl, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			blobs = append(blobs, rec.Compact())
			refs += rec.Len()
			rec.Release()
		}
	}
	geoms := table2Grid()
	for _, mode := range []string{"stream", "packed", "decode"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, blob := range blobs {
					var err error
					if mode == "decode" {
						err = decodeBlob(blob)
					} else {
						err = replayBlob(blob, geoms, mode == "stream")
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(refs), "ns/ref")
		})
	}
}

// replayBlob replays one compacted recording through fresh pairs of
// geoms: pulled through trace.Replay when stream is set, and otherwise
// pushed into a trace.Replayer one decoded chunk at a time.
func replayBlob(blob []byte, geoms []cache.Config, stream bool) error {
	pairs, err := newPairs(geoms)
	if err != nil {
		return err
	}
	rd, err := trace.NewReader(bytes.NewReader(blob))
	if err != nil {
		return err
	}
	if stream {
		return trace.Replay(context.Background(), rd, pairs, nil)
	}
	rp, err := trace.NewReplayer(pairs, nil)
	if err != nil {
		return err
	}
	for {
		ch, err := rd.Next()
		if err == io.EOF {
			rp.Close()
			return nil
		}
		if err != nil {
			return err
		}
		rp.Feed(ch)
	}
}

// decodeBlob decodes one compacted recording to its end through
// trace.Reader.Next.
func decodeBlob(blob []byte) error {
	rd, err := trace.NewReader(bytes.NewReader(blob))
	if err != nil {
		return err
	}
	for {
		if _, err := rd.Next(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}
