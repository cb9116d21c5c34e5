package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"jmtam/internal/cache"
	"jmtam/internal/core"
	"jmtam/internal/experiments"
	"jmtam/internal/programs"
	"jmtam/internal/trace"
	"jmtam/internal/tracestore"
)

// The layer probe times the layers an operation does not call directly
// on its own path — compile, compact, decode, the store's disk tier and
// streamed replay — once per traced run, on the workload's own programs
// and recordings, outside every timed operation.

// compileUnit is one (program, backend, mesh size) the workload compiles.
type compileUnit struct {
	w     experiments.Workload
	impl  core.Impl
	nodes int
}

// probeUnit is one recording the workload produced.
type probeUnit struct {
	name  string // unique label, hashed into the store key
	rec   *trace.Recording
	ann   []byte
	blob  []byte // the compacted form the server stored, when known
	geoms []cache.Config
}

// probe times core.Compile for every compile unit, then for every
// recording: Recording.CompactAnnotated, a trace.NewReader drain,
// tracestore.Store.Put and Get on a disk-only store (SHA-256 sidecar
// written and verified), and experiments.ReplayStreamFanOutContext
// through the unit's geometries on one worker. Results land in out under
// their PerLayer names.
func probe(ctx context.Context, out map[string]float64, cu []compileUnit, units []probeUnit) error {
	var compileUS []float64
	for _, c := range cu {
		spec, err := programs.ByName(c.w.Name)
		if err != nil {
			return err
		}
		prog := spec.Build(c.w.Arg)
		start := time.Now()
		if _, err := core.Compile(c.impl, prog, core.Options{Nodes: c.nodes}); err != nil {
			return err
		}
		compileUS = append(compileUS, float64(time.Since(start))/float64(time.Microsecond))
	}
	out["compile.us_p50"] = Median(compileUS)

	dir, err := os.MkdirTemp("", "jmbench-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := tracestore.New(dir, -1, nil)
	if err != nil {
		return err
	}
	var packed, compacted, refGeoms float64
	var compactT, decodeT, streamT time.Duration
	var putMS, getUS []float64
	for _, u := range units {
		start := time.Now()
		blob := u.rec.CompactAnnotated(u.ann)
		compactT += time.Since(start)
		if u.blob != nil && !bytes.Equal(blob, u.blob) {
			return fmt.Errorf("probe %s: re-compacted recording differs from the stored one", u.name)
		}
		packed += float64(4 * u.rec.Len())
		compacted += float64(len(blob))

		start = time.Now()
		n, err := drain(blob)
		decodeT += time.Since(start)
		if err != nil {
			return fmt.Errorf("probe %s: %w", u.name, err)
		}
		if n != u.rec.Len() {
			return fmt.Errorf("probe %s: decoded %d references, recorded %d", u.name, n, u.rec.Len())
		}

		h := sha256.Sum256([]byte(u.name))
		key := hex.EncodeToString(h[:])
		start = time.Now()
		if err := disk.Put(key, blob); err != nil {
			return err
		}
		putMS = append(putMS, float64(time.Since(start))/float64(time.Millisecond))
		start = time.Now()
		got, ok := disk.Get(key)
		getUS = append(getUS, float64(time.Since(start))/float64(time.Microsecond))
		if !ok || !bytes.Equal(got, blob) {
			return fmt.Errorf("probe %s: store returned a different blob", u.name)
		}

		start = time.Now()
		_, err = experiments.ReplayStreamFanOutContext(ctx, func() (*trace.Reader, error) {
			return trace.NewReader(bytes.NewReader(blob))
		}, u.geoms, 1)
		streamT += time.Since(start)
		if err != nil {
			return err
		}
		refGeoms += float64(u.rec.Len() * len(u.geoms))
	}
	mbps := func(b float64, d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return b / 1e6 / d.Seconds()
	}
	out["compact.mb_per_s"] = mbps(packed, compactT)
	if packed > 0 {
		out["compact.ratio"] = compacted / packed
	}
	out["decode.mb_per_s"] = mbps(packed, decodeT)
	out["store.put_ms_p50"] = Median(putMS)
	out["store.get_us_p50"] = Median(getUS)
	out["replay_stream.mref_geoms_per_s"] = mbps(refGeoms, streamT)
	return nil
}

// drain decodes a compacted recording to its end and counts references.
func drain(blob []byte) (int, error) {
	rd, err := trace.NewReader(bytes.NewReader(blob))
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		c, err := rd.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n += len(c)
	}
}

// work accumulates counts of simulated work by name (instructions,
// ticks, references × geometries) for the per-layer rates.
type work struct {
	mu sync.Mutex
	v  map[string]float64
}

func (w *work) add(name string, x float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.v == nil {
		w.v = make(map[string]float64)
	}
	w.v[name] += x
}

func (w *work) get(name string) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.v[name]
}
