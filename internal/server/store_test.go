package server

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"jmtam/api"
	"jmtam/internal/core"
	"jmtam/internal/experiments"
	"jmtam/internal/shard"
	"jmtam/internal/trace"
	"jmtam/internal/tracestore"
)

// TestSweepStoreWarmHits runs the same sweep twice on one daemon: the
// first run records each (workload, impl) once, the second serves every
// unit from the store, and both documents are byte-identical — to each
// other and to the pinned golden.
func TestSweepStoreWarmHits(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i, body := range sweepBodies {
		first := sweepResultBytes(t, ts.URL, body)
		second := sweepResultBytes(t, ts.URL, body)
		if string(first) != string(second) {
			t.Fatalf("body %d: warm result differs from cold\ncold %s\nwarm %s", i, first, second)
		}
		if want := sweepGolden(t, i); string(first) != want {
			t.Fatalf("body %d: store path differs from the golden\ngot  %s\nwant %s", i, first, want)
		}
	}
	c := metricCounters(t, ts.URL)
	// 2 units (ss × md, ss × am), recorded on the first sweep only; the
	// other three sweeps (warm repeat + both runs of the detail body,
	// which shares the grid) are pure hits.
	if c["store.records"] != 2 {
		t.Fatalf("store.records = %d, want 2", c["store.records"])
	}
	if c["store.hits"] < 6 {
		t.Fatalf("store.hits = %d, want >= 6", c["store.hits"])
	}
	if c["store.misses"] != 2 {
		t.Fatalf("store.misses = %d, want 2", c["store.misses"])
	}
	if c["store.bytes.saved"] == 0 {
		t.Fatal("store.bytes.saved = 0 after warm sweeps")
	}
}

// TestSweepStoreFleet is the fleet acceptance bar: a distributed sweep
// whose workers resolve recordings through a shared store hub is
// byte-identical to local execution, each (program, arg, impl, nodes)
// is recorded at most once fleet-wide, and a later worker joining the
// fleet serves entirely from peer fetches.
func TestSweepStoreFleet(t *testing.T) {
	_, local := newTestServer(t, Config{})
	_, hub := newTestServer(t, Config{})
	_, w1 := newTestServer(t, Config{StorePeers: []string{hub.URL}})
	_, w2 := newTestServer(t, Config{StorePeers: []string{hub.URL}})
	_, coord := newTestServer(t, Config{
		ShardWorkers: []string{w1.URL, w2.URL},
		Shard:        shard.Config{BaseBackoff: time.Millisecond},
	})
	for i, body := range sweepBodies {
		want := sweepResultBytes(t, local.URL, body)
		got := sweepResultBytes(t, coord.URL, body)
		if string(got) != string(want) {
			t.Fatalf("body %d: fleet result differs from local\ngot  %s\nwant %s", i, got, want)
		}
	}
	// Both bodies share the same (workload, impl) grid, so across every
	// fleet member the two units were simulated exactly once each.
	records := uint64(0)
	for _, base := range []string{hub.URL, w1.URL, w2.URL, coord.URL} {
		records += metricCounters(t, base)["store.records"]
	}
	if records != 2 {
		t.Fatalf("fleet-wide store.records = %d, want 2 (one per unit)", records)
	}
	// Every recorded unit was pushed to the hub.
	if v := metricCounters(t, hub.URL)["store.push.received"]; v != 2 {
		t.Fatalf("hub store.push.received = %d, want 2", v)
	}

	// A cold worker joining the fleet runs the sweep without simulating
	// anything: every unit is a peer fetch from the hub.
	_, w3 := newTestServer(t, Config{StorePeers: []string{hub.URL}})
	want := sweepResultBytes(t, local.URL, sweepBodies[1])
	got := sweepResultBytes(t, w3.URL, sweepBodies[1])
	if string(got) != string(want) {
		t.Fatalf("cold peer-fed worker differs from local\ngot  %s\nwant %s", got, want)
	}
	c := metricCounters(t, w3.URL)
	if c["store.records"] != 0 {
		t.Fatalf("cold worker re-simulated: store.records = %d", c["store.records"])
	}
	if c["store.peer.hits"] != 2 {
		t.Fatalf("cold worker store.peer.hits = %d, want 2", c["store.peer.hits"])
	}
}

// TestRecordingEndpoints exercises GET/PUT /v1/recordings/{key}:
// upload, content round-trip, ETag revalidation, range requests, and
// the rejection paths.
func TestRecordingEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := ts.Client()

	rec := &trace.Recording{}
	for i := uint32(0); i < 10_000; i++ {
		rec.Fetch(0x1000 + i*4)
	}
	data := rec.CompactAnnotated([]byte(`{"program":"x","arg":1,"impl":"AM","nodes":1}`))
	key := tracestore.Desc{Program: "x", Arg: 1, Impl: "AM", Nodes: 1}.Key()
	url := ts.URL + "/v1/recordings/" + key

	put := func(body string, wantCode int) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPut, url, strings.NewReader(body))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("PUT status = %d, want %d", resp.StatusCode, wantCode)
		}
	}

	// Missing, then malformed key, then corrupt payload.
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET before PUT = %d, want 404", resp.StatusCode)
	}
	resp, _ = client.Get(ts.URL + "/v1/recordings/not-hex")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET bad key = %d, want 400", resp.StatusCode)
	}
	put("definitely not a recording", http.StatusBadRequest)

	// Valid upload, full round-trip.
	put(string(data), http.StatusNoContent)
	resp, err = client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(got) != string(data) {
		t.Fatalf("GET = %d, %d bytes; want 200 with %d bytes", resp.StatusCode, len(got), len(data))
	}
	etag := resp.Header.Get("ETag")
	if etag != `"`+key+`"` {
		t.Fatalf("ETag = %q, want the key", etag)
	}

	// ETag revalidation: 304 with no body.
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match = %d, want 304", resp.StatusCode)
	}

	// Range request: the first 16 bytes only.
	req, _ = http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("Range", "bytes=0-15")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	part, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent || string(part) != string(data[:16]) {
		t.Fatalf("Range = %d with %d bytes, want 206 with 16", resp.StatusCode, len(part))
	}
}

// TestRecordingEndpointsDisabled: a store with no memory tier and no
// disk keeps nothing, so every sweep records each unit afresh and GET
// answers 404 for a recording the daemon has just made.
func TestRecordingEndpointsDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{StoreMemBytes: -1})
	for i := 0; i < 2; i++ {
		if got, want := string(sweepResultBytes(t, ts.URL, sweepBodies[0])), sweepGolden(t, 0); got != want {
			t.Fatalf("sweep %d differs from the golden\ngot  %s\nwant %s", i, got, want)
		}
	}
	if c := metricCounters(t, ts.URL); c["store.records"] != 4 || c["store.hits"] != 0 {
		t.Fatalf("store.records = %d, store.hits = %d; want 4 and 0", c["store.records"], c["store.hits"])
	}
	key := tracestore.Desc{Program: "ss", Arg: 40, Impl: "MD", Nodes: 1}.Key()
	resp, err := ts.Client().Get(ts.URL + "/v1/recordings/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil {
		t.Fatalf("GET body is not an error envelope: %v", err)
	}
	if resp.StatusCode != http.StatusNotFound || env.Error.Message != "no such recording" {
		t.Fatalf("GET = %d %q, want 404 \"no such recording\"", resp.StatusCode, env.Error.Message)
	}
}

// TestSweepStoreDiskTier: a daemon restarted over the same -store-dir
// serves its recordings from disk without re-simulating.
func TestSweepStoreDiskTier(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{StoreDir: dir})
	first := sweepResultBytes(t, ts1.URL, sweepBodies[0])
	if v := metricCounters(t, ts1.URL)["store.records"]; v != 2 {
		t.Fatalf("first daemon store.records = %d, want 2", v)
	}
	ts1.Close()
	s1.Close()

	_, ts2 := newTestServer(t, Config{StoreDir: dir})
	second := sweepResultBytes(t, ts2.URL, sweepBodies[0])
	if string(first) != string(second) {
		t.Fatalf("disk-served result differs from recorded one\ngot  %s\nwant %s", second, first)
	}
	c := metricCounters(t, ts2.URL)
	if c["store.records"] != 0 {
		t.Fatalf("restarted daemon re-simulated: store.records = %d", c["store.records"])
	}
	if c["store.disk.hits"] != 2 {
		t.Fatalf("store.disk.hits = %d, want 2", c["store.disk.hits"])
	}
}

// TestStoredRecordingsGolden pins the bytes of every recording a
// quick-scale sweep stores, one per program and backend, by SHA-256, as
// read back over GET /v1/recordings/{key}.
func TestStoredRecordingsGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	impls := core.BackendNames()
	body, err := json.Marshal(api.SweepRequest{Scale: "quick", SizesKB: []int{8}, Assocs: []int{4}, Impls: impls})
	if err != nil {
		t.Fatal(err)
	}
	sweepResultBytes(t, ts.URL, string(body))
	var sums strings.Builder
	for _, w := range experiments.QuickWorkloads() {
		for _, name := range impls {
			impl, err := core.ParseImpl(name)
			if err != nil {
				t.Fatal(err)
			}
			key := tracestore.Desc{Program: w.Name, Arg: w.Arg, Impl: impl.String(), Nodes: 1}.Key()
			resp, err := ts.Client().Get(ts.URL + "/v1/recordings/" + key)
			if err != nil {
				t.Fatal(err)
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s %d %s: status %d, %v", w.Name, w.Arg, name, resp.StatusCode, err)
			}
			fmt.Fprintf(&sums, "%x  %s %d %s\n", sha256.Sum256(data), w.Name, w.Arg, name)
		}
	}
	checkGolden(t, "recordings.sha256", sums.String())
}
