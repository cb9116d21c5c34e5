package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jmtam/internal/cache"
	"jmtam/internal/mem"
	"jmtam/internal/obs"
	"jmtam/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files")

// runTamsim runs tamsim on args plus -events and -metrics files in a
// fresh directory, and returns its stdout, with that directory cut from
// the paths it prints, and the two files.
func runTamsim(t *testing.T, args ...string) (stdout string, events, metrics []byte) {
	t.Helper()
	dir := t.TempDir()
	evPath, mPath := filepath.Join(dir, "events.json"), filepath.Join(dir, "metrics.json")
	args = append(args, "-events", evPath, "-metrics", mPath)
	var out, stderr bytes.Buffer
	if code := run(args, &out, &stderr); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
	}
	events, err := os.ReadFile(evPath)
	if err != nil {
		t.Fatal(err)
	}
	if metrics, err = os.ReadFile(mPath); err != nil {
		t.Fatal(err)
	}
	return strings.ReplaceAll(out.String(), dir+string(filepath.Separator), ""), events, metrics
}

// TestGolden pins tamsim's three outputs byte for byte: stdout and the
// -metrics registry as golden files, and the -events timeline by its
// SHA-256. The cases cover one node under AM and under Offload (whose
// NIC stream adds its own block, counters and tracks), a 4-node mesh
// under MD, Offload and Active Access, and a geometry grid with -hist.
func TestGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"qs_am", []string{"-prog", "qs", "-arg", "60", "-impl", "am"}},
		{"qs_offload", []string{"-prog", "qs", "-arg", "60", "-impl", "offload"}},
		{"wavefront_n4_md", []string{"-prog", "wavefront", "-arg", "8", "-nodes", "4", "-impl", "md"}},
		{"wavefront_n4_offload", []string{"-prog", "wavefront", "-arg", "8", "-nodes", "4", "-impl", "offload"}},
		{"wavefront_n4_aa", []string{"-prog", "wavefront", "-arg", "8", "-nodes", "4", "-impl", "aa"}},
		{"qs_md_grid", []string{"-prog", "qs", "-arg", "60", "-impl", "md", "-cache", "1,8", "-assoc", "1,4", "-hist"}},
	} {
		stdout, events, metrics := runTamsim(t, c.args...)
		sum := sha256.Sum256(events)
		for _, f := range []struct {
			suffix string
			got    []byte
		}{
			{".stdout", []byte(stdout)},
			{".metrics.json", metrics},
			{".events.sha256", []byte(hex.EncodeToString(sum[:]) + "\n")},
		} {
			path := filepath.Join("testdata", c.name+f.suffix)
			if *updateGolden {
				if err := os.WriteFile(path, f.got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(f.got, want) {
				t.Errorf("%v: output differs from %s\ngot:\n%s\nwant:\n%s", c.args, path, f.got, want)
			}
		}
	}
}

// TestMissDensityGolden pins the miss-density counter tracks that
// -events writes, by the SHA-256 of their exported bytes: the compute
// stream of a quick-scale QS run under AM at 8K/4-way/64B, and the NIC
// stream of the same run under Offload at the NIC engine's geometry,
// labelled "nic". Every sample's instruction count and I- and D-miss
// counts land in the digest.
func TestMissDensityGolden(t *testing.T) {
	for _, c := range []struct {
		impl, prefix, want string
	}{
		{"am", "", "9043b668c04320d12ebde05a69feb2e55d7d8b2848b1c0c42671559ab1e7af65"},
		{"offload", "nic.", "04fa296546d43ee5c58407b02d788eda66f4b7f88a8d06aeb11e81d18fa168eb"},
	} {
		_, events, _ := runTamsim(t, "-prog", "qs", "-arg", "60", "-impl", c.impl)
		var doc struct {
			TraceEvents []struct {
				Name, Cat string
				Ts        uint64
				Pid       int32
				Args      json.RawMessage
			}
		}
		if err := json.Unmarshal(events, &doc); err != nil {
			t.Fatal(err)
		}
		b := obs.NewEventBuffer()
		for _, e := range doc.TraceEvents {
			if e.Cat != "miss-density" || !strings.HasPrefix(e.Name, c.prefix) {
				continue
			}
			var args struct{ Misses uint64 }
			if err := json.Unmarshal(e.Args, &args); err != nil {
				t.Fatal(err)
			}
			b.Counter(e.Name, e.Cat, e.Pid, e.Ts, "misses", args.Misses)
		}
		h := sha256.New()
		if err := b.WriteJSON(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s %q: miss-density SHA-256 %s, want %s", c.impl, c.prefix, got, c.want)
		}
	}
}

// TestMissDensityTrackEmitsCounters feeds a synthetic stream to a
// density track and checks what it writes: one I- and one D-miss
// counter per 1000 fetches, on the given pid, named with the label.
func TestMissDensityTrackEmitsCounters(t *testing.T) {
	var rec trace.Recording
	for i := uint32(0); i < 3000; i++ {
		rec.Fetch(mem.UserCodeBase + 4*(i%700))
		rec.Read(mem.HeapBase + 4*(i%900))
	}
	cfg := cache.Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1}
	for _, label := range []string{"", "nic."} {
		d, err := newDensity(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var misses uint64
		rec.Do(func(k trace.Kind, addr uint32) { d.rp.Feed([]uint32{trace.Encode(k, addr)}) })
		b := obs.NewEventBuffer()
		d.emit(b, 3, label)
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
			misses += e.ArgV
		}
		if misses == 0 {
			t.Fatal("no misses; test data too small")
		}
		// Two series (I and D), 3 full samples each for 3000 fetches.
		want := map[string]int{label + "I-miss density": 3, label + "D-miss density": 3}
		if !maps.Equal(names, want) {
			t.Errorf("label %q: counter tracks %v, want %v", label, names, want)
		}
	}
}
