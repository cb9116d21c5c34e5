package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"jmtam/internal/experiments"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files")

// TestGolden pins the quick-scale artifacts byte for byte: every
// artifact at one worker and at eight against one golden (results are
// identical at every parallelism), Table 2 on 4-node meshes, and
// Figure 5 as CSV.
func TestGolden(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"all_quick.golden", []string{"-run", "all", "-scale", "quick", "-parallel", "1"}},
		{"all_quick.golden", []string{"-run", "all", "-scale", "quick", "-parallel", "8"}},
		{"table2_nodes4.golden", []string{"-run", "table2", "-scale", "quick", "-nodes", "4"}},
		{"figure5_csv.golden", []string{"-run", "figure5", "-scale", "quick", "-format", "csv"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", c.args, code, stderr.String())
		}
		path := filepath.Join("testdata", c.golden)
		if *updateGolden {
			if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := stdout.String(); got != string(want) {
			t.Errorf("%v: output differs from %s\ngot:\n%s\nwant:\n%s", c.args, path, got, want)
		}
	}
}

// TestMetricsGolden pins the twelve registry dumps -metrics-dir writes
// for the quick-scale Table 2 sweep, byte for byte, at one worker and
// at eight. They carry the machine's hook outputs (priority switches,
// handler and inlet latencies, queue waits, the instruction mix) and
// the attributing replay's per-class misses. The command reports
// each dump on a "wrote" line, workload by workload and, within one,
// in the sweep's backend order.
func TestMetricsGolden(t *testing.T) {
	goldenDir := filepath.Join("testdata", "metrics_quick")
	sweep := experiments.DefaultSweep(experiments.QuickWorkloads())
	var order []string
	for _, w := range sweep.Workloads {
		for _, impl := range sweep.Impls {
			order = append(order, w.Name+"_"+impl.Name()+".json")
		}
	}
	for _, par := range []string{"1", "8"} {
		dir := t.TempDir()
		args := []string{"-run", "table2", "-scale", "quick", "-parallel", par, "-metrics-dir", dir}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		var wrote []string
		for _, line := range strings.Split(stdout.String(), "\n") {
			if path, ok := strings.CutPrefix(line, "wrote "); ok {
				wrote = append(wrote, filepath.Base(path))
			}
		}
		if !slices.Equal(wrote, order) {
			t.Errorf("-parallel %s: wrote %v, want %v", par, wrote, order)
		}
		got, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if *updateGolden {
			if err := os.RemoveAll(goldenDir); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(goldenDir, 0o755); err != nil {
				t.Fatal(err)
			}
			for _, e := range got {
				b, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err == nil {
					err = os.WriteFile(filepath.Join(goldenDir, e.Name()), b, 0o644)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		want, err := os.ReadDir(goldenDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || len(want) != 12 {
			t.Fatalf("-parallel %s wrote %d dumps, golden has %d, want 12", par, len(got), len(want))
		}
		for i, e := range want {
			if got[i].Name() != e.Name() {
				t.Fatalf("-parallel %s: dump %d is %s, golden %s", par, i, got[i].Name(), e.Name())
			}
			g, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			w, err := os.ReadFile(filepath.Join(goldenDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g, w) {
				t.Errorf("-parallel %s: %s differs from its golden", par, e.Name())
			}
		}
	}
}

// TestBadArguments checks the exit status of unknown artifact, scale
// and backend names.
func TestBadArguments(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-run", "figure9"}, 2},
		{[]string{"-scale", "huge"}, 2},
		{[]string{"-impls", "md,nope"}, 1},
		{[]string{"-placement", "scatter"}, 1},
		{[]string{"-bogus"}, 2},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", c.args, code, c.code, stderr.String())
		}
	}
}
