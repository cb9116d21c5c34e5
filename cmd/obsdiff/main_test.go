package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files")

// TestTables pins obsdiff's three table modes over one pair of dumps.
// The dumps hold counters, gauges and histograms present in only one
// of them, gauges at negative levels, a gauge whose range moved while
// its value did not, an all-zero gauge present only after (unchanged,
// since a missing metric reads as zero), a histogram of large values,
// and a mean of 2.3496, which the dump prints as 2.350 and the table as
// 2.3.
func TestTables(t *testing.T) {
	for _, c := range []struct {
		golden string
		flags  []string
	}{
		{"default.golden", nil},
		{"all.golden", []string{"-all"}},
		{"match.golden", []string{"-match", "jobs."}},
	} {
		var stdout, stderr bytes.Buffer
		args := append(c.flags, filepath.Join("testdata", "before.json"), filepath.Join("testdata", "after.json"))
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
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
			t.Errorf("%v: table differs from %s\ngot:\n%s\nwant:\n%s", c.flags, path, got, want)
		}
	}
}

// TestBadInput checks that an unreadable or malformed dump, or a wrong
// argument count, exits 2.
func TestBadInput(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join("testdata", "before.json")
	for name, body := range map[string]string{
		"truncated.json": `{"counters": {"jobs.finished": 4`,
		"wrongtype.json": `{"counters": {"jobs.finished": "four"}}`,
		"notjson.json":   `counters: 4`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{good, path}, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", name, code)
		}
	}
	for _, args := range [][]string{
		{good, filepath.Join(dir, "missing.json")},
		{good},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
