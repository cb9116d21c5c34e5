package server

import (
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files")

// wallClock matches one wall-clock histogram line of a /metricz
// document (a ".ms" name segment), capturing the name, its sample count
// and the line's trailing comma.
var wallClock = regexp.MustCompile(`(?m)^(\s*"[^"]*\.ms\b[^"]*": \{"count": \d+), .*\](\},?)$`)

// scrapeMasked returns base's /metricz document with the values of its
// wall-clock histograms cut: their sample counts follow from the job
// sequence, their durations do not.
func scrapeMasked(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return wallClock.ReplaceAllString(string(body), "$1$2")
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestMetriczGolden pins every name and value on /metricz over a fixed
// job sequence: a scrape of the fresh daemon, then three run jobs (the
// second a code-cache hit under another penalty, the third a
// result-cache hit) and two sweeps with the recording store on disk,
// the second replaying the first's recordings under another penalty.
func TestMetriczGolden(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, ResultMemBytes: 1 << 20, StoreDir: t.TempDir()})
	checkGolden(t, "metricz_start.golden", scrapeMasked(t, ts.URL))
	for _, body := range []string{
		`{"program":"ss","arg":30,"impl":"md"}`,
		`{"program":"ss","arg":30,"impl":"md","penalties":[24]}`,
		`{"program":"ss","arg":30,"impl":"md"}`,
	} {
		lines := readStream(t, postJSON(t, ts.URL+"/v1/runs", body))
		if final := lines[len(lines)-1]; final.Type != "result" {
			t.Fatalf("run %s ended with %q (error %q)", body, final.Type, final.Error)
		}
	}
	sweepResultBytes(t, ts.URL, sweepBodies[0])
	sweepResultBytes(t, ts.URL, `{"workloads":[{"program":"ss","arg":40}],"sizes_kb":[1,8],"assocs":[1,4],"impls":["md","am"],"penalties":[24]}`)
	// A stream ends when its job turns terminal, a moment before the job
	// goroutine returns its pool slot, which pool.in_use samples.
	s.wg.Wait()
	checkGolden(t, "metricz.golden", scrapeMasked(t, ts.URL))
}
