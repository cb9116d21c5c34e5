package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"jmtam/api"
	"jmtam/internal/faultnet"
	"jmtam/internal/shard"
)

// resumeSweepBody is a 2-workload × 2-impl grid (4 units) with detail
// on, big enough to truncate at several checkpoint depths.
const resumeSweepBody = `{"workloads":[{"program":"ss","arg":40},{"program":"ss","arg":44}],"sizes_kb":[1,8],"assocs":[1,4],"impls":["md","am"],"detail":true}`

// journalLines splits a journal file into its parsed records alongside
// the raw line bytes.
func journalLines(t *testing.T, path string) (recs []journalRecord, raws [][]byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		recs = append(recs, rec)
		raws = append(raws, line)
	}
	return recs, raws
}

// TestSweepCheckpointResumeByteIdentical is the crash-resume tentpole:
// a journal cut off after K unit checkpoints — the on-disk state a
// kill -9 mid-sweep leaves behind — restarts into a daemon that re-runs
// only the unfinished units and serves a result document byte-identical
// to the uninterrupted run, at every kill point.
func TestSweepCheckpointResumeByteIdentical(t *testing.T) {
	// Uninterrupted run: the reference result and a complete journal.
	full := filepath.Join(t.TempDir(), "full.ndjson")
	cfg := Config{JournalPath: full, ResultMemBytes: -1}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	want := sweepResultBytes(t, ts1.URL, resumeSweepBody)
	ts1.Close()
	s1.Close()

	recs, raws := journalLines(t, full)
	var prefix [][]byte // accept + start, the pre-checkpoint records
	var units [][]byte  // unit checkpoints in append order
	var jobID string
	for i, rec := range recs {
		switch rec.Op {
		case "accept", "start":
			prefix = append(prefix, raws[i])
			jobID = rec.ID
		case "unit":
			units = append(units, raws[i])
		}
	}
	if len(units) != 4 {
		t.Fatalf("%d unit checkpoints journaled, want 4", len(units))
	}

	for _, k := range []int{1, 2, 3} {
		// A journal killed after K checkpoints: accept, start, K units,
		// no terminal record.
		jpath := filepath.Join(t.TempDir(), "killed.ndjson")
		torn := append(append([][]byte{}, prefix...), units[:k]...)
		if err := os.WriteFile(jpath, append(bytes.Join(torn, []byte("\n")), '\n'), 0o644); err != nil {
			t.Fatal(err)
		}

		s2, err := New(Config{JournalPath: jpath, ResultMemBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		ts2 := httptest.NewServer(s2.Handler())
		final := waitState(t, ts2.URL, jobID, StateDone)
		if compactJSON(t, final.Result) != compactJSON(t, want) {
			t.Errorf("k=%d: resumed result differs from uninterrupted run\ngot  %s\nwant %s",
				k, final.Result, want)
		}
		c := metricCounters(t, ts2.URL)
		if c["journal.resumed.units"] != uint64(k) {
			t.Errorf("k=%d: journal.resumed.units = %d, want %d", k, c["journal.resumed.units"], k)
		}
		if c["journal.requeued"] != 1 {
			t.Errorf("k=%d: journal.requeued = %d, want 1", k, c["journal.requeued"])
		}
		ts2.Close()
		s2.Close()
	}
}

// TestResumeDropsMismatchedCheckpoints: checkpoints journaled for a
// different request shape (stale or corrupt) are discarded — the units
// re-run — rather than corrupting the resumed document.
func TestResumeDropsMismatchedCheckpoints(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	var req SweepRequest
	if err := json.Unmarshal([]byte(resumeSweepBody), &req.SweepRequest); err != nil {
		t.Fatal(err)
	}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	units := map[int]json.RawMessage{
		-1: json.RawMessage(`{}`),                        // out of range
		9:  json.RawMessage(`{}`),                        // past the grid
		0:  json.RawMessage(`{"program":"mm","arg":40}`), // wrong workload
		1:  json.RawMessage(`not json`),                  // unparseable
		2:  json.RawMessage(`{"program":"ss","arg":44}`), // wrong geometry count
	}
	if resume := s.decodeCheckpoints(&req, units); resume != nil {
		t.Fatalf("invalid checkpoints accepted: %v", resume)
	}
}

// TestResumeDropsPreUpgradeCheckpoint: checkpoints journaled before unit
// rows carried cycle counts (the retired UnitResult form, with true
// numbers) are dropped and their units re-run, and the resumed document
// still matches the golden.
func TestResumeDropsPreUpgradeCheckpoint(t *testing.T) {
	var req SweepRequest
	if err := json.Unmarshal([]byte(sweepBodies[1]), &req.SweepRequest); err != nil {
		t.Fatal(err)
	}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range []journalRecord{
		{Op: "accept", ID: "s-000001", Kind: "sweep", Req: raw},
		{Op: "start", ID: "s-000001"},
		unitRec("s-000001", 0, `{"program":"ss","arg":40,"impl":"MD","instructions":11427,"tpq":900,"ipt":12.696666666666667,"ipq":11427,"caches":[{"size_kb":1,"block_bytes":64,"assoc":1,"i_misses":4,"d_misses":313,"writebacks":170},{"size_kb":1,"block_bytes":64,"assoc":4,"i_misses":4,"d_misses":8,"writebacks":1},{"size_kb":8,"block_bytes":64,"assoc":1,"i_misses":4,"d_misses":313,"writebacks":170},{"size_kb":8,"block_bytes":64,"assoc":4,"i_misses":4,"d_misses":8,"writebacks":0}]}`),
		unitRec("s-000001", 1, `{"program":"ss","arg":40,"impl":"AM","instructions":13269,"tpq":900,"ipt":14.743333333333334,"ipq":13269,"caches":[{"size_kb":1,"block_bytes":64,"assoc":1,"i_misses":9,"d_misses":314,"writebacks":172},{"size_kb":1,"block_bytes":64,"assoc":4,"i_misses":9,"d_misses":7,"writebacks":0},{"size_kb":8,"block_bytes":64,"assoc":1,"i_misses":9,"d_misses":314,"writebacks":172},{"size_kb":8,"block_bytes":64,"assoc":4,"i_misses":9,"d_misses":7,"writebacks":0}]}`),
	} {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	jpath := filepath.Join(t.TempDir(), "j.ndjson")
	if err := os.WriteFile(jpath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{JournalPath: jpath})
	final := waitState(t, ts.URL, "s-000001", StateDone)
	if got, want := compactJSON(t, final.Result), sweepGolden(t, 1); got != want {
		t.Fatalf("resumed result differs from the golden\ngot  %s\nwant %s", got, want)
	}
	c := metricCounters(t, ts.URL)
	if c["journal.resumed.units"] != 0 || c["store.records"] != 2 {
		t.Fatalf("journal.resumed.units = %d, store.records = %d; want 0 and 2 (both units re-run)",
			c["journal.resumed.units"], c["store.records"])
	}
}

// TestResumeDropsCheckpointThatDoesNotAddUp: a journaled unit
// checkpoint with one digit of one i_misses changed no longer adds up
// to its cycle counts. The restarted daemon drops it and re-runs the
// unit, and the resumed document equals the golden.
func TestResumeDropsCheckpointThatDoesNotAddUp(t *testing.T) {
	digit := regexp.MustCompile(`"i_misses":\d*(\d)`)
	resumeChangedCheckpoint(t, func(result []byte) []byte {
		loc := digit.FindSubmatchIndex(result)
		if loc == nil {
			t.Fatalf("no i_misses in checkpoint %s", result)
		}
		res := bytes.Clone(result)
		res[loc[2]] = '0' + (res[loc[2]]-'0'+1)%10
		return res
	})
}

// TestResumeDropsCheckpointAboveLRUInclusion: a journaled unit
// checkpoint whose 8K 4-way cache misses one more than its 1K 4-way
// one, with its cycles recomputed so that they add up, breaks LRU
// inclusion. The restarted daemon drops it and re-runs the unit, and
// the resumed document equals the golden.
func TestResumeDropsCheckpointAboveLRUInclusion(t *testing.T) {
	resumeChangedCheckpoint(t, func(result []byte) []byte {
		var u api.SweepRunSummary
		if err := json.Unmarshal(result, &u); err != nil {
			t.Fatal(err)
		}
		small, big := &u.Caches[1], &u.Caches[3] // 1K and 8K, 4-way
		if small.Assoc != 4 || big.Assoc != 4 || small.SizeKB != 1 || big.SizeKB != 8 {
			t.Fatalf("checkpoint geometries %+v and %+v, want 1K and 8K 4-way", small.CacheSpec, big.CacheSpec)
		}
		big.IMisses = small.IMisses + 1
		for i := range big.Cycles {
			big.Cycles[i].Cycles = api.Cycles(u.Instructions, big.Cycles[i].Penalty, big.IMisses, big.DMisses)
		}
		res, err := json.Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
}

// resumeChangedCheckpoint runs sweepBodies[1] with a journal, rewrites
// the journal with the checkpoint of unit 1 changed by change, and
// restarts a daemon on it: the daemon must drop the checkpoint and
// re-run both units, and the resumed document must equal the golden.
func resumeChangedCheckpoint(t *testing.T, change func(result []byte) []byte) {
	t.Helper()
	full := filepath.Join(t.TempDir(), "full.ndjson")
	s1, err := New(Config{JournalPath: full, ResultMemBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	sweepResultBytes(t, ts1.URL, sweepBodies[1])
	ts1.Close()
	s1.Close()

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	var jobID string
	recs, _ := journalLines(t, full)
	for _, rec := range recs {
		switch {
		case rec.Op == "accept" || rec.Op == "start":
			jobID = rec.ID
		case rec.Op == "unit" && rec.Unit.Idx == 1:
			rec.Unit.Result = change(rec.Unit.Result)
		default:
			continue
		}
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	jpath := filepath.Join(t.TempDir(), "j.ndjson")
	if err := os.WriteFile(jpath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{JournalPath: jpath})
	final := waitState(t, ts.URL, jobID, StateDone)
	if got, want := compactJSON(t, final.Result), sweepGolden(t, 1); got != want {
		t.Fatalf("resumed result differs from the golden\ngot  %s\nwant %s", got, want)
	}
	c := metricCounters(t, ts.URL)
	if c["journal.resumed.units"] != 0 || c["store.records"] != 2 {
		t.Fatalf("journal.resumed.units = %d, store.records = %d; want 0 and 2 (both units re-run)",
			c["journal.resumed.units"], c["store.records"])
	}
}

// TestWatchdogKillsHungJob: a job that never finishes is killed at
// -job-timeout with the deadline_exceeded error code, the kill is
// counted, and the worker slot frees for the next job.
func TestWatchdogKillsHungJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, JobTimeout: 50 * time.Millisecond})
	job := s.submit("run", "", nil, &RunRequest{}, func(ctx context.Context, j *Job) (json.RawMessage, error) {
		<-ctx.Done() // wedged: only the watchdog ends this
		return nil, ctx.Err()
	})
	st := waitState(t, ts.URL, job.ID, StateFailed)
	if !strings.HasPrefix(st.Error, string(api.CodeDeadlineExceeded)) {
		t.Fatalf("error = %q, want %s prefix", st.Error, api.CodeDeadlineExceeded)
	}
	c := metricCounters(t, ts.URL)
	if c["watchdog.kills"] != 1 {
		t.Fatalf("watchdog.kills = %d, want 1", c["watchdog.kills"])
	}
	// The slot was released: a well-behaved job runs to completion on
	// the single-worker pool (and well under the timeout).
	lines := readStream(t, postJSON(t, ts.URL+"/v1/runs", `{"program":"ss","arg":40}`))
	if final := lines[len(lines)-1]; final.Type != "result" {
		t.Fatalf("post-kill job ended %q (%s)", final.Type, final.Error)
	}
}

// TestWatchdogSparesFinishingJobs: a timeout far above job runtime
// never fires — completing work is not misclassified as wedged.
func TestWatchdogSparesFinishingJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{JobTimeout: time.Minute})
	lines := readStream(t, postJSON(t, ts.URL+"/v1/runs", `{"program":"ss","arg":40}`))
	if final := lines[len(lines)-1]; final.Type != "result" {
		t.Fatalf("job ended %q (%s)", final.Type, final.Error)
	}
	if c := metricCounters(t, ts.URL); c["watchdog.kills"] != 0 {
		t.Fatalf("watchdog.kills = %d on a healthy job", c["watchdog.kills"])
	}
}

// TestDrainRefusesNewWorkFinishesRunning: BeginDrain flips /readyz to
// 503 and rejects submissions with a retryable envelope, while the job
// already running finishes normally and Drain returns.
func TestDrainRefusesNewWorkFinishesRunning(t *testing.T) {
	s, err := New(Config{ResultMemBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain readyz: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	gate := make(chan struct{})
	job := s.submit("run", "", nil, &RunRequest{}, func(ctx context.Context, j *Job) (json.RawMessage, error) {
		<-gate
		return json.RawMessage(`{"ok":true}`), nil
	})
	s.BeginDrain()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSON(t, ts.URL+"/v1/runs", `{"program":"ss","arg":40}`)
	body, apiErr := resp.StatusCode, api.Error{}
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil {
		t.Fatalf("draining submit: no error envelope (%v)", err)
	}
	apiErr = *env.Error
	resp.Body.Close()
	if body != http.StatusServiceUnavailable || apiErr.Code != api.CodeUnavailable || !apiErr.Retryable {
		t.Fatalf("draining submit = %d %s retryable=%v, want 503 unavailable retryable", body, apiErr.Code, apiErr.Retryable)
	}

	// The in-flight job is not a casualty of the drain.
	drained := make(chan struct{})
	go func() {
		s.Drain(context.Background())
		close(drained)
	}()
	close(gate)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return after the running job finished")
	}
	if st := job.Status(); st.State != StateDone {
		t.Fatalf("running job ended %q during drain, want done", st.State)
	}
}

// TestDrainTimeoutCancelsButPreservesCheckpoints: a job that outlives
// the drain deadline is canceled, but because the cancellation came
// from shutdown it stays incomplete in the journal — a restart re-runs
// it rather than reporting it canceled.
func TestDrainTimeoutCancelsButPreservesCheckpoints(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.ndjson")
	s, err := New(Config{JournalPath: jpath, ResultMemBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	job := s.submit("run", "", nil, &RunRequest{RunRequest: api.RunRequest{Program: "ss", Arg: 40}}, func(ctx context.Context, j *Job) (json.RawMessage, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	s.Drain(ctx) // expires; the wedged job is canceled by Close

	if st := job.State(); st != StateCanceled {
		t.Fatalf("job state after timed-out drain = %q, want canceled", st)
	}
	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ := foldJournal(raw)
	if len(jobs) != 1 || jobs[0].ID != job.ID {
		t.Fatalf("journal folded to %+v", jobs)
	}
	if jobs[0].State.Terminal() {
		t.Fatalf("shutdown-canceled job journaled terminal (%s); a restart could not resume it", jobs[0].State)
	}
}

// TestShardCoordinatorRoutesAroundDrainingWorker: a draining worker
// answers /readyz with 503 and refuses leases, so every shard lands on
// the healthy worker and the merged result stays byte-identical.
func TestShardCoordinatorRoutesAroundDrainingWorker(t *testing.T) {
	_, local := newTestServer(t, Config{})
	draining, drainTS := newTestServer(t, Config{})
	draining.BeginDrain()
	healthy := newWorker(t)
	_, coord := newTestServer(t, Config{
		ShardWorkers: []string{drainTS.URL, healthy},
		Shard:        shard.Config{BaseBackoff: time.Millisecond, MaxAttempts: 4},
	})
	body := sweepBodies[0]
	want := sweepResultBytes(t, local.URL, body)
	got := sweepResultBytes(t, coord.URL, body)
	if string(got) != string(want) {
		t.Fatalf("result with a draining worker differs\ngot  %s\nwant %s", got, want)
	}
	c := metricCounters(t, coord.URL)
	if c["shard.remote"] == 0 {
		t.Error("no shards ran remotely despite a healthy worker")
	}
	if dc := metricCounters(t, drainTS.URL); dc["jobs.submitted"] != 0 {
		t.Errorf("draining worker accepted %d jobs", dc["jobs.submitted"])
	}
}

// TestReadyzReportsJournalDegraded: failing journal appends flip
// readiness off (the daemon can no longer keep its durability promise)
// while liveness stays green.
func TestReadyzReportsJournalDegraded(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.ndjson")
	s, ts := newTestServer(t, Config{JournalPath: jpath})
	s.journal.f.Close() // every subsequent append fails

	lines := readStream(t, postJSON(t, ts.URL+"/v1/runs", `{"program":"ss","arg":40}`))
	if final := lines[len(lines)-1]; final.Type != "result" {
		t.Fatalf("job failed under journal degradation: %q (%s)", final.Type, final.Error)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d with a degraded journal, want 503", resp.StatusCode)
	}
	if resp, err = http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %v %v, want 200 (liveness is not readiness)", resp.StatusCode, err)
	}
	resp.Body.Close()
	if c := metricCounters(t, ts.URL); c["journal.errors"] == 0 {
		t.Error("journal.errors = 0 after failed appends")
	}
}

// TestScrubQuarantinesAndRepairsOnServer: end to end through the
// daemon — a sweep populates the disk store, a bit flips on disk, one
// scrub pass quarantines and self-heals it, and a re-run of the sweep
// still serves the correct (byte-identical) result.
func TestScrubQuarantinesAndRepairsOnServer(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{StoreDir: dir})
	body := sweepBodies[0]
	want := sweepResultBytes(t, ts.URL, body)

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	struckAny := false
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".jtr") {
			if _, err := faultnet.CorruptFile(filepath.Join(dir, e.Name()), 3); err != nil {
				t.Fatal(err)
			}
			struckAny = true
		}
	}
	if !struckAny {
		t.Fatal("sweep left no .jtr blobs to corrupt")
	}

	s.scrubOnce()
	c := metricCounters(t, ts.URL)
	if c["store.corrupt"] == 0 {
		t.Fatalf("store.corrupt = 0 after corrupting every blob")
	}
	// The memory tier held good copies, so the scrub self-healed them
	// all and readiness never wedged.
	if c["store.repaired"] != c["store.corrupt"] {
		t.Fatalf("repaired %d of %d corrupt blobs", c["store.repaired"], c["store.corrupt"])
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d after full repair, want 200", resp.StatusCode)
	}

	got := sweepResultBytes(t, ts.URL, body)
	if string(got) != string(want) {
		t.Fatalf("post-repair sweep differs\ngot  %s\nwant %s", got, want)
	}
}

// TestLoadgenStyleReadyzFlow sanity-checks the readiness lifecycle a
// load harness sees: ready → draining (503 with reason) → and the
// reason text names the cause.
func TestReadyzDrainReason(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.BeginDrain()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env api.ErrorEnvelope
	if err := json.NewDecoder(bufio.NewReader(resp.Body)).Decode(&env); err != nil || env.Error == nil {
		t.Fatalf("readyz 503 body is not an error envelope: %v", err)
	}
	if !strings.Contains(env.Error.Message, "draining") {
		t.Fatalf("readyz reason = %q, want it to name draining", env.Error.Message)
	}
}
