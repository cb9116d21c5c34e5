package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"jmtam/internal/faultnet"
	"jmtam/internal/obs"
	"jmtam/internal/shard"
)

// sweepBodies covers both summary and detail documents: one workload ×
// two impls over a 2×2 geometry grid that includes the paper's 8K
// 4-way reference point, so Table 2 assembly is exercised too.
var sweepBodies = []string{
	`{"workloads":[{"program":"ss","arg":40}],"sizes_kb":[1,8],"assocs":[1,4],"impls":["md","am"]}`,
	`{"workloads":[{"program":"ss","arg":40}],"sizes_kb":[1,8],"assocs":[1,4],"impls":["md","am"],"detail":true}`,
}

// goldenSweepBodies are the bodies whose result documents are pinned
// in testdata: both sweepBodies, plus every backend over two workloads
// under penalties other than Table 2's, with detail.
var goldenSweepBodies = []string{
	sweepBodies[0],
	sweepBodies[1],
	`{"workloads":[{"program":"ss","arg":40},{"program":"wavefront","arg":8}],"sizes_kb":[1,8],"assocs":[1,4],"penalties":[7,24],"impls":["md","am","am-enabled","oam","offload","aa"],"detail":true}`,
}

// sweepGolden returns the pinned result document of goldenSweepBodies[i].
func sweepGolden(t *testing.T, i int) string {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("sweep_%d.golden", i)))
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSuffix(string(want), "\n")
}

// TestSweepDocumentGolden pins the sweep result documents, and requires
// every way of serving a sweep to produce them byte for byte: a daemon
// recording each unit, the same daemon repeating the sweep from its
// recording store, a coordinator over two workers, and a coordinator
// whose only worker is dead.
func TestSweepDocumentGolden(t *testing.T) {
	_, daemon := newTestServer(t, Config{})
	w1, w2 := newWorker(t), newWorker(t)
	_, coord := newTestServer(t, Config{
		ShardWorkers: []string{w1, w2},
		Shard:        shard.Config{BaseBackoff: time.Millisecond},
	})
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	_, degraded := newTestServer(t, Config{
		ShardWorkers: []string{deadURL},
		Shard:        shard.Config{BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond, MaxAttempts: 2},
	})
	for i, body := range goldenSweepBodies {
		first := string(sweepResultBytes(t, daemon.URL, body))
		checkGolden(t, fmt.Sprintf("sweep_%d.golden", i), first+"\n")
		for _, src := range []struct{ name, base string }{
			{"store repeat", daemon.URL},
			{"coordinator", coord.URL},
			{"degraded coordinator", degraded.URL},
		} {
			if got := string(sweepResultBytes(t, src.base, body)); got != first {
				t.Errorf("body %d: %s differs from the golden\ngot  %s\nwant %s", i, src.name, got, first)
			}
		}
	}
}

// sweepResultBytes submits a sweep and returns the final result
// document's raw bytes.
func sweepResultBytes(t *testing.T, base, body string) []byte {
	t.Helper()
	lines := readStream(t, postJSON(t, base+"/v1/sweeps", body))
	final := lines[len(lines)-1]
	if final.Type != "result" {
		t.Fatalf("final line type = %q (error %q)", final.Type, final.Error)
	}
	return final.Result
}

// compactJSON strips encoder indentation: GET documents are served
// indented while stream lines are compact, and only the JSON value may
// differ, never the numbers inside it.
func compactJSON(t *testing.T, raw []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("bad JSON %q: %v", raw, err)
	}
	return buf.String()
}

// readMetricz reads base's /metricz document back into a registry.
func readMetricz(t *testing.T, base string) *obs.Registry {
	t.Helper()
	resp, err := http.Get(base + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r, err := obs.ReadJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// metricCounters returns base's /metricz counters by name.
func metricCounters(t *testing.T, base string) map[string]uint64 {
	t.Helper()
	r := readMetricz(t, base)
	c := make(map[string]uint64)
	for _, name := range r.CounterNames() {
		c[name] = r.Counter(name).Value()
	}
	return c
}

// newWorker starts a leaf tamsimd (a plain server) and returns its base
// URL.
func newWorker(t *testing.T) string {
	t.Helper()
	_, ts := newTestServer(t, Config{})
	return ts.URL
}

// TestSweepDistributedByteIdentical is the tentpole guarantee: a sweep
// farmed out across two workers produces a result document
// byte-identical to the same sweep executed in-process, and a clean
// distributed run reports zero retries/re-queues on /metricz.
func TestSweepDistributedByteIdentical(t *testing.T) {
	_, local := newTestServer(t, Config{})
	w1, w2 := newWorker(t), newWorker(t)
	_, coord := newTestServer(t, Config{
		ShardWorkers: []string{w1, w2},
		Shard:        shard.Config{BaseBackoff: time.Millisecond},
	})
	for i, body := range sweepBodies {
		want := sweepResultBytes(t, local.URL, body)
		got := sweepResultBytes(t, coord.URL, body)
		if string(got) != string(want) {
			t.Fatalf("body %d: distributed result differs from local\ngot  %s\nwant %s", i, got, want)
		}
	}
	c := metricCounters(t, coord.URL)
	for _, name := range []string{"shard.retries", "shard.requeues", "shard.breaker.opens", "shard.local"} {
		if v, ok := c[name], true; !ok || v != 0 {
			t.Errorf("clean run: %s = %d, want 0 (present)", name, v)
		}
	}
	if c["shard.remote"] == 0 || c["shard.shards"] == 0 {
		t.Errorf("clean run: shard.remote=%d shard.shards=%d, want nonzero", c["shard.remote"], c["shard.shards"])
	}
}

// TestSweepDistributedChaosByteIdentical injects seeded faults — one
// permanently dead worker plus a transport dropping requests, serving
// 503s and cutting streams mid-body — and requires the merged output to
// stay byte-identical while the retry/re-queue counters go nonzero.
func TestSweepDistributedChaosByteIdentical(t *testing.T) {
	_, local := newTestServer(t, Config{})
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // crashed worker: TCP-level connection refused
	good := newWorker(t)
	_, coord := newTestServer(t, Config{
		ShardWorkers: []string{deadURL, good},
		Shard: shard.Config{
			// Disconnects cut response bodies past 512 bytes, so the tiny
			// /readyz probes always pass and the live worker stays
			// admissible while its sweep streams get severed mid-body.
			Transport: faultnet.NewTransport(nil, faultnet.Plan{
				Seed: 11, Disconnect: 0.6, SpikeProb: 0.3, Spike: 2 * time.Millisecond,
			}),
			BaseBackoff: time.Millisecond,
			MaxBackoff:  5 * time.Millisecond,
			MaxAttempts: 12,
			Seed:        11,
		},
	})
	for i, body := range sweepBodies {
		want := sweepResultBytes(t, local.URL, body)
		got := sweepResultBytes(t, coord.URL, body)
		if string(got) != string(want) {
			t.Fatalf("body %d: chaotic result differs from local\ngot  %s\nwant %s", i, got, want)
		}
	}
	c := metricCounters(t, coord.URL)
	if c["shard.retries"] == 0 && c["shard.requeues"] == 0 {
		t.Errorf("chaos run: retries=%d requeues=%d, want at least one nonzero", c["shard.retries"], c["shard.requeues"])
	}
	if c["shard.breaker.opens"] == 0 {
		t.Errorf("chaos run: dead worker never opened its breaker")
	}
}

// TestSweepDistributedNoWorkersDegradesLocal points the coordinator at
// nothing but a dead worker: every shard must degrade to the
// coordinator's own unit path, recording each unit once into its
// store, and the output must still match the golden. A repeat under
// other penalties replays those recordings without recording again.
func TestSweepDistributedNoWorkersDegradesLocal(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	_, coord := newTestServer(t, Config{
		ShardWorkers: []string{deadURL},
		Shard: shard.Config{
			BaseBackoff: time.Millisecond,
			MaxBackoff:  time.Millisecond,
			MaxAttempts: 2,
		},
	})
	if got, want := string(sweepResultBytes(t, coord.URL, sweepBodies[0])), sweepGolden(t, 0); got != want {
		t.Fatalf("local-degraded result differs from the golden\ngot  %s\nwant %s", got, want)
	}
	c := metricCounters(t, coord.URL)
	if c["shard.local"] != 2 {
		t.Errorf("shard.local = %d, want both shards to degrade locally", c["shard.local"])
	}
	if c["shard.remote"] != 0 {
		t.Errorf("shard.remote = %d with no live worker", c["shard.remote"])
	}
	if c["store.records"] != 2 {
		t.Errorf("store.records = %d, want each unit recorded once", c["store.records"])
	}
	sweepResultBytes(t, coord.URL, `{"workloads":[{"program":"ss","arg":40}],"sizes_kb":[1,8],"assocs":[1,4],"impls":["md","am"],"penalties":[24]}`)
	c = metricCounters(t, coord.URL)
	if c["store.records"] != 2 || c["store.hits"] < 2 {
		t.Errorf("repeat: store.records = %d, store.hits = %d; want 2 and >= 2", c["store.records"], c["store.hits"])
	}
}

// TestJournalRestartResumesIncompleteJob kills the daemon with a job
// still queued and restarts it on the same journal: the original job ID
// must eventually serve the correct result.
func TestJournalRestartResumesIncompleteJob(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.ndjson")
	body := sweepBodies[0]

	cfg := Config{JournalPath: jpath, Workers: 1}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	// Occupy the only pool slot so the submitted job is journaled but
	// cannot start before the "crash".
	if err := s1.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts1.URL+"/v1/sweeps?detach=1", body)
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State.Terminal() {
		t.Fatalf("job %s terminal before crash", st.ID)
	}
	ts1.Close()
	s1.Close() // daemon dies with the job incomplete on disk

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() { ts2.Close(); s2.Close() })
	final := waitState(t, ts2.URL, st.ID, StateDone)

	_, local := newTestServer(t, Config{})
	want := sweepResultBytes(t, local.URL, body)
	if compactJSON(t, final.Result) != compactJSON(t, want) {
		t.Fatalf("post-restart result differs\ngot  %s\nwant %s", final.Result, want)
	}
	if c := metricCounters(t, ts2.URL); c["journal.requeued"] == 0 {
		t.Errorf("journal.requeued = 0, want >= 1")
	}
}

// TestJournalRestartServesCompletedResult restarts the daemon after a
// job finished: the result must come back from the journal, and new
// job IDs must not collide with journaled ones.
func TestJournalRestartServesCompletedResult(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.ndjson")
	cfg := Config{JournalPath: jpath}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	lines := readStream(t, postJSON(t, ts1.URL+"/v1/runs", `{"program":"ss","arg":40}`))
	final := lines[len(lines)-1]
	if final.Type != "result" {
		t.Fatalf("final line = %q", final.Type)
	}
	id := lines[0].ID
	ts1.Close()
	s1.Close()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() { ts2.Close(); s2.Close() })
	st := waitState(t, ts2.URL, id, StateDone)
	if compactJSON(t, st.Result) != compactJSON(t, final.Result) {
		t.Fatalf("restored result differs\ngot  %s\nwant %s", st.Result, final.Result)
	}
	// A fresh submission must get an ID past the journaled sequence.
	resp := postJSON(t, ts2.URL+"/v1/runs?detach=1", `{"program":"ss","arg":40}`)
	var st2 JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st2.ID == id {
		t.Fatalf("new job reused journaled ID %s", id)
	}
	waitState(t, ts2.URL, st2.ID, StateDone)
}

// TestCancelRaceIdempotent races DELETE against job completion: however
// the race lands, the job settles in exactly one terminal state and
// further DELETEs do not disturb it.
func TestCancelRaceIdempotent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/runs?detach=1", `{"program":"ss","arg":40}`)
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+st.ID, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("DELETE status = %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()

	deadline := time.Now().Add(30 * time.Second)
	var settled JobStatus
	for {
		r, err := http.Get(ts.URL + "/v1/runs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&settled); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if settled.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", settled.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if settled.State != StateDone && settled.State != StateCanceled {
		t.Fatalf("settled state = %q", settled.State)
	}
	// DELETE after terminal is a no-op: same state, same result.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+st.ID, nil)
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var after JobStatus
	if err := json.NewDecoder(r2.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if after.State != settled.State || string(after.Result) != string(settled.Result) {
		t.Fatalf("post-terminal DELETE changed the job: %q -> %q", settled.State, after.State)
	}
}

// TestJournalSurvivesTornTail appends garbage to a journal with one
// completed job: recovery must keep everything before the torn write.
func TestJournalSurvivesTornTail(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.ndjson")
	cfg := Config{JournalPath: jpath}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	lines := readStream(t, postJSON(t, ts1.URL+"/v1/runs", `{"program":"ss","arg":40}`))
	id := lines[0].ID
	ts1.Close()
	s1.Close()

	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"accept","id":"r-9`); err != nil { // torn mid-record
		t.Fatal(err)
	}
	f.Close()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() { ts2.Close(); s2.Close() })
	waitState(t, ts2.URL, id, StateDone)
}
