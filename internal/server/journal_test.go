package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"jmtam/internal/obs"
)

// mustAppend writes one synced record, failing the test on error.
func mustAppend(t *testing.T, j *journal, rec journalRecord) {
	t.Helper()
	if err := j.append(rec); err != nil {
		t.Fatal(err)
	}
}

func unitRec(id string, idx int, payload string) journalRecord {
	return journalRecord{Op: "unit", ID: id, Unit: &unitCheckpoint{Idx: idx, Result: json.RawMessage(payload)}}
}

// TestFoldJournalInterleaved: two jobs' records interleaved in one
// file fold independently — checkpoints land on the right job and
// terminal state on the right job.
func TestFoldJournalInterleaved(t *testing.T) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range []journalRecord{
		{Op: "accept", ID: "s-1", Kind: "sweep", Req: json.RawMessage(`{"a":1}`)},
		{Op: "accept", ID: "s-2", Kind: "sweep", Req: json.RawMessage(`{"a":2}`)},
		{Op: "start", ID: "s-1"},
		unitRec("s-2", 0, `{"u":20}`),
		unitRec("s-1", 1, `{"u":11}`),
		{Op: "start", ID: "s-2"},
		unitRec("s-1", 0, `{"u":10}`),
		{Op: "done", ID: "s-2", Result: json.RawMessage(`{"r":2}`)},
	} {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	jobs, skipped := foldJournal(buf.Bytes())
	if skipped != 0 {
		t.Fatalf("skipped = %d, want 0", skipped)
	}
	if len(jobs) != 2 || jobs[0].ID != "s-1" || jobs[1].ID != "s-2" {
		t.Fatalf("jobs = %+v", jobs)
	}
	j1, j2 := jobs[0], jobs[1]
	if j1.State != StateRunning || len(j1.Units) != 2 ||
		string(j1.Units[0]) != `{"u":10}` || string(j1.Units[1]) != `{"u":11}` {
		t.Fatalf("s-1 folded wrong: state=%s units=%v", j1.State, j1.Units)
	}
	if j2.State != StateDone || string(j2.Result) != `{"r":2}` || len(j2.Units) != 1 {
		t.Fatalf("s-2 folded wrong: state=%s result=%s", j2.State, j2.Result)
	}
}

// TestFoldJournalSkipsMidFileCorruption: a corrupt line in the middle
// of the file — a bad sector, not a torn tail — must not discard the
// intact records after it; only an unparseable final line ends replay.
func TestFoldJournalSkipsMidFileCorruption(t *testing.T) {
	lines := [][]byte{
		[]byte(`{"op":"accept","id":"r-1","kind":"run","req":{}}`),
		[]byte(`{"op":"start","id":"r-1"`), // corrupt mid-file: skipped
		[]byte(`{"op":"done","id":"r-1","result":{"ok":true}}`),
		[]byte(`{"op":"accept","id":"r-2","kind":"run","req":{}}`),
	}
	jobs, skipped := foldJournal(bytes.Join(lines, []byte("\n")))
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1", skipped)
	}
	if len(jobs) != 2 || jobs[0].State != StateDone || jobs[1].State != StateQueued {
		t.Fatalf("jobs = %+v", jobs)
	}

	// Corrupt bytes as the *final* line are a torn tail: replay stops
	// there and nothing is counted as skipped.
	intact := [][]byte{lines[0], lines[2]}
	torn := append(bytes.Join(intact, []byte("\n")), []byte("\n{\"op\":\"accept\",\"id\":\"r-9")...)
	jobs, skipped = foldJournal(torn)
	if skipped != 0 {
		t.Fatalf("torn tail counted as skipped (%d)", skipped)
	}
	if len(jobs) != 1 || jobs[0].State != StateDone {
		t.Fatalf("torn-tail jobs = %+v", jobs)
	}
}

// TestJournalDegradedMode: when appends start failing the journal
// reports degraded (the /readyz signal) and recovers on the next
// successful append.
func TestJournalDegradedMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.ndjson")
	j, _, _, err := openJournal(path, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, journalRecord{Op: "accept", ID: "r-1", Kind: "run"})
	if j.degraded() {
		t.Fatal("degraded after a successful append")
	}
	// Close the fd out from under the journal: the next append fails.
	j.f.Close()
	if err := j.append(journalRecord{Op: "start", ID: "r-1"}); err == nil {
		t.Fatal("append on a closed journal succeeded")
	}
	if !j.degraded() {
		t.Fatal("append failure did not degrade the journal")
	}
	// Recovery: restore a working fd and the next append clears it.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	j.f = f
	mustAppend(t, j, journalRecord{Op: "start", ID: "r-1"})
	if j.degraded() {
		t.Fatal("successful append did not clear degraded")
	}
	j.close()
}

// normalizeForReplay reduces a folded job to the state recovery
// actually uses: terminal jobs are restored from State/Result/Error
// alone (their request and checkpoints are never re-run), so
// compaction legitimately drops those fields when folding to a snap.
func normalizeForReplay(jobs []*journalJob) []*journalJob {
	out := make([]*journalJob, len(jobs))
	for i, j := range jobs {
		c := *j
		if c.State.Terminal() {
			c.Req = nil
			c.Units = nil
		}
		out[i] = &c
	}
	return out
}

// TestJournalCompactionRoundTrip is the compaction contract: replaying
// the compacted file yields the same recovery state as replaying the
// original — terminal jobs keep their results, live jobs keep their
// request and every unit checkpoint.
func TestJournalCompactionRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.ndjson")
	j, _, _, err := openJournal(path, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, journalRecord{Op: "accept", ID: "s-1", Kind: "sweep", Tenant: "alice", Req: json.RawMessage(`{"a":1}`)})
	mustAppend(t, j, journalRecord{Op: "start", ID: "s-1"})
	mustAppend(t, j, unitRec("s-1", 2, `{"u":2}`))
	mustAppend(t, j, journalRecord{Op: "done", ID: "s-1", Result: json.RawMessage(`{"r":1}`)})
	mustAppend(t, j, journalRecord{Op: "accept", ID: "s-2", Kind: "sweep", Req: json.RawMessage(`{"a":2}`)})
	mustAppend(t, j, journalRecord{Op: "start", ID: "s-2"})
	mustAppend(t, j, unitRec("s-2", 1, `{"u":1}`))
	mustAppend(t, j, unitRec("s-2", 0, `{"u":0}`))
	mustAppend(t, j, journalRecord{Op: "accept", ID: "r-3", Kind: "run", Req: json.RawMessage(`{"a":3}`)})
	mustAppend(t, j, journalRecord{Op: "fail", ID: "r-3", Error: "boom"})

	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantJobs, _ := foldJournal(before)

	if err := j.compact(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(before) {
		t.Fatalf("compaction grew the journal: %d -> %d bytes", len(before), len(after))
	}
	gotJobs, skipped := foldJournal(after)
	if skipped != 0 {
		t.Fatalf("compacted journal has %d corrupt lines", skipped)
	}
	if !reflect.DeepEqual(normalizeForReplay(gotJobs), normalizeForReplay(wantJobs)) {
		t.Fatalf("replay of compacted differs from original\ngot  %+v\nwant %+v", gotJobs, wantJobs)
	}

	// The journal stays appendable after the rename+reopen.
	mustAppend(t, j, journalRecord{Op: "done", ID: "s-2", Result: json.RawMessage(`{"r":2}`)})
	final, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ := foldJournal(final)
	for _, jj := range jobs {
		if jj.ID == "s-2" && jj.State != StateDone {
			t.Fatalf("post-compaction append lost: s-2 = %s", jj.State)
		}
	}
	j.close()
}

// TestJournalBoundedUnderMaxBytes: a journal with a byte bound compacts
// itself as terminal jobs accumulate, instead of growing forever.
func TestJournalBoundedUnderMaxBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.ndjson")
	m := obs.NewShared()
	const maxBytes = 4096
	j, _, _, err := openJournal(path, maxBytes, m)
	if err != nil {
		t.Fatal(err)
	}
	payload := json.RawMessage(`{"r":"` + string(bytes.Repeat([]byte("x"), 200)) + `"}`)
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("r-%d", i)
		mustAppend(t, j, journalRecord{Op: "accept", ID: id, Kind: "run", Req: json.RawMessage(`{}`)})
		mustAppend(t, j, journalRecord{Op: "start", ID: id})
		mustAppend(t, j, journalRecord{Op: "done", ID: id, Result: payload})
	}
	var compactions, compactErrors uint64
	m.Read(func(r *obs.Registry) {
		compactions = r.Counter("journal.compactions").Value()
		compactErrors = r.Counter("journal.compact.errors").Value()
	})
	if compactions == 0 {
		t.Fatal("journal never compacted under its byte bound")
	}
	if compactErrors != 0 {
		t.Fatalf("journal.compact.errors = %d", compactErrors)
	}
	// 64 snap lines of ~260 bytes exceed 4096, so the file cannot shrink
	// under maxBytes forever — but it must stay within a small factor of
	// its live state (the 2*lastSnap guard prevents recompaction thrash,
	// so the bound is 2x the last snapshot, plus one in-flight batch).
	if err := j.compact(); err != nil {
		t.Fatal(err)
	}
	snap := j.bytes()
	if got := int64(64 * (len(payload) + 100)); snap > got {
		t.Fatalf("compacted size %d implausibly large (> %d)", snap, got)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != snap {
		t.Fatalf("size accounting drifted: journal says %d, file is %d", snap, st.Size())
	}
	// Every job survived all those compactions.
	raw, _ := os.ReadFile(path)
	jobs, _ := foldJournal(raw)
	if len(jobs) != 64 {
		t.Fatalf("%d jobs after compactions, want 64", len(jobs))
	}
	for _, jj := range jobs {
		if jj.State != StateDone || string(jj.Result) != string(payload) {
			t.Fatalf("job %s lost state across compaction: %s", jj.ID, jj.State)
		}
	}
	j.close()
}
