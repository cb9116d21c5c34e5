package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
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
