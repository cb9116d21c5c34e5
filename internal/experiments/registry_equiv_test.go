package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"jmtam/internal/core"
	"jmtam/internal/mem"
	"jmtam/internal/parallel"
	"jmtam/internal/trace"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata golden files")

// goldenRun pins one (implementation, workload, mesh size) simulation:
// the SHA-256 of its recorded reference stream(s) plus the headline
// counters. The goldens of the four pre-registry backends at N=1 and
// N=4 were generated before the backend registry refactor, so this
// suite asserts the capability-driven codegen emits byte-identical
// instruction streams and reference traces for them; the offload, aa
// and N=8 entries were added later, from the same code, to pin every
// backend on the lockstep mesh.
type goldenRun struct {
	Impl         string `json:"impl"`
	Program      string `json:"program"`
	Arg          int    `json:"arg"`
	Nodes        int    `json:"nodes"`
	Instructions uint64 `json:"instructions"`
	Ticks        uint64 `json:"ticks"`
	TraceSHA256  string `json:"trace_sha256"`
}

func goldenPath(t *testing.T) string {
	t.Helper()
	return filepath.Join("testdata", "registry_golden.json")
}

// hashRecordings digests the decoded reference streams of one run:
// per-node in node order, each reference as a packed little-endian
// word, with a node-boundary marker so stream boundaries participate.
func hashRecordings(recs []*trace.Recording) string {
	h := sha256.New()
	var buf [4]byte
	for _, rec := range recs {
		binary.LittleEndian.PutUint32(buf[:], 0xffffffff)
		h.Write(buf[:])
		rec.Do(func(k trace.Kind, addr uint32) {
			binary.LittleEndian.PutUint32(buf[:], trace.Encode(k, addr))
			h.Write(buf[:])
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// recount classifies every reference of rec again with mem.Classify:
// the reference for the per-class Counts the machine keeps as it
// records.
func recount(rec *trace.Recording) trace.Counts {
	var c trace.Counts
	rec.Do(func(k trace.Kind, addr uint32) {
		switch cls := mem.Classify(addr); k {
		case trace.KindFetch:
			c.Fetches[cls]++
		case trace.KindRead:
			c.Reads[cls]++
		default:
			c.Writes[cls]++
		}
	})
	return c
}

// recordGolden runs one golden cell and returns its pinned form. A
// NIC-offload backend's NIC streams hash after the compute streams,
// each behind its own node marker; other backends record none, so
// their digests cover the compute streams alone. Every stream's Counts,
// compute and NIC, must equal its recount.
func recordGolden(w Workload, impl core.Impl, nodes int) (goldenRun, error) {
	g := goldenRun{
		Impl: impl.String(), Program: w.Name, Arg: w.Arg, Nodes: nodes,
	}
	r, recs, err := RecordCluster(w, impl, core.Options{Nodes: nodes})
	if err != nil {
		return g, err
	}
	g.Instructions = r.Instructions
	if nodes > 1 {
		g.Ticks = r.Ticks
	}
	streams := append(recs, r.nicRecs...)
	for k, rec := range streams {
		if c := recount(rec); c != rec.Counts {
			return g, fmt.Errorf("%s/%v n=%d stream %d: counts %+v, recount %+v",
				w.Name, impl, nodes, k, rec.Counts, c)
		}
	}
	g.TraceSHA256 = hashRecordings(streams)
	return g, nil
}

// TestRegistryEquivalence asserts that every registry backend still
// produces byte-identical reference traces and identical instruction and
// tick counts for the six benchmarks at N=1, N=4 and N=8. Regenerate with
// `go test ./internal/experiments -run TestRegistryEquivalence -update`
// only when an intentional simulator-semantics change lands.
func TestRegistryEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden matrix skipped in -short mode")
	}
	type cell struct {
		w     Workload
		impl  core.Impl
		nodes int
	}
	var cells []cell
	for _, b := range core.Backends() {
		for _, w := range QuickWorkloads() {
			for _, n := range []int{1, 4, 8} {
				cells = append(cells, cell{w, b.Impl, n})
			}
		}
	}
	got := make([]goldenRun, len(cells))
	err := parallel.ForEach(0, len(cells), func(i int) error {
		g, err := recordGolden(cells[i].w, cells[i].impl, cells[i].nodes)
		if err != nil {
			return err
		}
		got[i] = g
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	path := goldenPath(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden runs to %s", len(got), path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing goldens (run with -update to generate): %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	idx := make(map[goldenRun]bool, len(want))
	wantByKey := make(map[string]goldenRun, len(want))
	for _, g := range want {
		idx[g] = true
		wantByKey[goldenKey(g)] = g
	}
	if len(want) != len(got) {
		t.Errorf("golden count %d, got %d runs", len(want), len(got))
	}
	for _, g := range got {
		if idx[g] {
			continue
		}
		if w, ok := wantByKey[goldenKey(g)]; ok {
			t.Errorf("%s %s/%d N=%d diverged from pre-registry baseline:\n  want instr=%d ticks=%d trace=%s\n  got  instr=%d ticks=%d trace=%s",
				g.Impl, g.Program, g.Arg, g.Nodes,
				w.Instructions, w.Ticks, w.TraceSHA256,
				g.Instructions, g.Ticks, g.TraceSHA256)
		} else {
			t.Errorf("no golden for %s %s/%d N=%d", g.Impl, g.Program, g.Arg, g.Nodes)
		}
	}
}

func goldenKey(g goldenRun) string {
	b, _ := json.Marshal([]any{g.Impl, g.Program, g.Arg, g.Nodes})
	return string(b)
}
