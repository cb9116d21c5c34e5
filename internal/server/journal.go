package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"jmtam/internal/obs"
)

// journalRecord is one NDJSON line of the write-ahead job journal. A
// job's life is a sequence of records sharing its ID: "accept" (with
// kind and the normalized request), "start", zero or more "unit"
// checkpoints (sweep jobs: one completed grid position each), and one
// terminal record — "done" (with the result document), "fail" or
// "cancel". Compaction folds a terminal job's whole sequence into a
// single "snap" line.
type journalRecord struct {
	Op     string          `json:"op"`
	ID     string          `json:"id"`
	Kind   string          `json:"kind,omitempty"`
	Tenant string          `json:"tenant,omitempty"`
	Req    json.RawMessage `json:"req,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	State  string          `json:"state,omitempty"` // snap: folded terminal state
	Unit   *unitCheckpoint `json:"unit,omitempty"`  // unit: one finished grid position
}

// unitCheckpoint is one completed sweep unit: the grid position (in
// shard.Spec.Units order — workload-major, implementation-minor) and
// its result document. A restarted daemon re-runs only positions with
// no checkpoint; position-indexed assembly makes the resumed document
// byte-identical to an uninterrupted run.
type unitCheckpoint struct {
	Idx    int             `json:"idx"`
	Result json.RawMessage `json:"result"`
}

// journalJob is one job's folded journal state after replay.
type journalJob struct {
	ID     string
	Kind   string
	Tenant string
	Req    json.RawMessage
	State  JobState
	Result json.RawMessage
	Error  string
	Units  map[int]json.RawMessage // completed sweep units by grid position
}

// unitSyncBatch bounds how many "unit" checkpoints may ride unsynced:
// checkpoint appends fsync once per batch (a terminal append always
// syncs, flushing stragglers). A crash loses at most the last batch of
// checkpoints — those units simply re-run on resume.
const unitSyncBatch = 8

// defaultJournalMaxBytes bounds the journal when the caller passes 0.
const defaultJournalMaxBytes = 64 << 20

// journal is the append-only NDJSON job journal. Terminal and accept
// appends are fsynced before they return: a record the server acted on
// is on disk, so a restarted daemon can resume or re-queue exactly the
// work that was in flight; unit checkpoints batch their fsyncs (see
// unitSyncBatch). Appends are serialized; an append error is reported
// to the caller (the server counts it and carries on — journaling
// degrades to best-effort rather than taking the serving path down).
//
// When the file grows past maxBytes the journal compacts in place:
// terminal jobs fold into single "snap" lines, live jobs keep their
// accept/start/unit records, and the rewrite lands atomically
// (temp file + fsync + rename), so the journal stays bounded by its
// live state while preserving replay semantics exactly.
type journal struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	maxBytes int64
	size     int64
	pending  int   // unit appends since the last fsync
	lastSnap int64 // size right after the last compaction
	degrade  bool  // last append failed; cleared by the next success
	metrics  *obs.Shared
}

// openJournal replays an existing journal (if any) and opens it for
// appending. Replay folds records per job in file order. A corrupt
// line mid-file is skipped (counted in skipped) — one bad sector must
// not discard every intact record after it; only an unparseable *final*
// line ends replay early, because that is the signature of a write a
// crash cut short. maxBytes bounds the file via compaction
// (0 = 64 MiB, negative = unbounded); the journal counts into m (nil
// = nowhere). Jobs return in first-appearance order.
func openJournal(path string, maxBytes int64, m *obs.Shared) (*journal, []*journalJob, int, error) {
	if maxBytes == 0 {
		maxBytes = defaultJournalMaxBytes
	}
	var jobs []*journalJob
	skipped := 0
	if raw, err := os.ReadFile(path); err == nil {
		jobs, skipped = foldJournal(raw)
	} else if !os.IsNotExist(err) {
		return nil, nil, 0, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	size := int64(0)
	if st, err := f.Stat(); err == nil {
		size = st.Size()
	}
	return &journal{f: f, path: path, maxBytes: maxBytes, size: size, metrics: m}, jobs, skipped, nil
}

// foldJournal replays raw journal bytes into per-job folded state.
// It is the single replay routine: startup recovery and compaction
// both go through it, which is what makes "replay of compacted ≡
// replay of original" hold by construction.
func foldJournal(raw []byte) (jobs []*journalJob, skipped int) {
	byID := make(map[string]*journalJob)
	lines := bytes.Split(raw, []byte("\n"))
	lastLine := -1
	for i := range lines {
		if len(bytes.TrimSpace(lines[i])) > 0 {
			lastLine = i
		}
	}
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			if i == lastLine {
				break // torn tail write; everything before it is intact
			}
			skipped++ // corrupt mid-file line; later records are still good
			continue
		}
		j := byID[rec.ID]
		if j == nil {
			if rec.Op != "accept" && rec.Op != "snap" {
				continue // progress/terminal record for a job we never accepted
			}
			j = &journalJob{ID: rec.ID, State: StateQueued}
			byID[rec.ID] = j
			jobs = append(jobs, j)
		}
		switch rec.Op {
		case "accept":
			j.Kind = rec.Kind
			j.Tenant = rec.Tenant
			j.Req = rec.Req
			j.State = StateQueued
		case "start":
			j.State = StateRunning
		case "unit":
			if rec.Unit != nil {
				if j.Units == nil {
					j.Units = make(map[int]json.RawMessage)
				}
				j.Units[rec.Unit.Idx] = rec.Unit.Result
			}
		case "done":
			j.State = StateDone
			j.Result = rec.Result
		case "fail":
			j.State = StateFailed
			j.Error = rec.Error
		case "cancel":
			j.State = StateCanceled
			j.Error = rec.Error
		case "snap":
			j.Kind = rec.Kind
			j.Tenant = rec.Tenant
			j.State = JobState(rec.State)
			j.Result = rec.Result
			j.Error = rec.Error
		}
	}
	return jobs, skipped
}

// append writes one record and fsyncs it, then compacts if the file
// outgrew its bound.
func (j *journal) append(rec journalRecord) error {
	return j.appendSync(rec, true)
}

// appendUnit writes one unit checkpoint with a batched fsync: the
// record is written immediately but only every unitSyncBatch-th
// checkpoint pays for a sync. Torn or lost checkpoints are harmless —
// replay skips them and the unit re-runs.
func (j *journal) appendUnit(rec journalRecord) error {
	return j.appendSync(rec, false)
}

func (j *journal) appendSync(rec journalRecord, syncNow bool) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.write(b, syncNow); err != nil {
		j.degrade = true
		return err
	}
	j.degrade = false
	if j.maxBytes > 0 && j.size > j.maxBytes && j.size > 2*j.lastSnap {
		if err := j.compactLocked(); err != nil {
			// The append itself is durable; a failed compaction only
			// means the file stays big until the next attempt.
			j.metrics.Count("journal.compact.errors", 1)
		}
	}
	return nil
}

func (j *journal) write(b []byte, syncNow bool) error {
	if _, err := j.f.Write(b); err != nil {
		return err
	}
	j.size += int64(len(b))
	j.pending++
	if !syncNow && j.pending < unitSyncBatch {
		return nil
	}
	j.pending = 0
	return j.f.Sync()
}

// degraded reports whether the most recent append failed — the signal
// /readyz uses to stop routing new work at a daemon whose write-ahead
// log is no longer keeping promises.
func (j *journal) degraded() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degrade
}

// compactLocked rewrites the journal from its own folded state:
// terminal jobs become one "snap" line each, live jobs re-emit
// accept + unit checkpoints (+ start), and the replacement file lands
// by atomic rename. Callers hold j.mu with all pending writes synced.
func (j *journal) compactLocked() error {
	raw, err := os.ReadFile(j.path)
	if err != nil {
		return err
	}
	jobs, _ := foldJournal(raw)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	emit := func(rec journalRecord) error { return enc.Encode(rec) }
	for _, jj := range jobs {
		if jj.State.Terminal() {
			if err := emit(journalRecord{
				Op: "snap", ID: jj.ID, Kind: jj.Kind, Tenant: jj.Tenant,
				State: string(jj.State), Result: jj.Result, Error: jj.Error,
			}); err != nil {
				return err
			}
			continue
		}
		if err := emit(journalRecord{Op: "accept", ID: jj.ID, Kind: jj.Kind, Tenant: jj.Tenant, Req: jj.Req}); err != nil {
			return err
		}
		idxs := make([]int, 0, len(jj.Units))
		for idx := range jj.Units {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		for _, idx := range idxs {
			if err := emit(journalRecord{Op: "unit", ID: jj.ID, Unit: &unitCheckpoint{Idx: idx, Result: jj.Units[idx]}}); err != nil {
				return err
			}
		}
		if jj.State == StateRunning {
			if err := emit(journalRecord{Op: "start", ID: jj.ID}); err != nil {
				return err
			}
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(j.path), ".journal.tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("journal compact: %w", err)
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("journal compact: %w", err)
	}
	if err := os.Rename(tmpName, j.path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("journal compact: %w", err)
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The compacted file is in place but we lost our handle; further
		// appends would land on the renamed-over inode and vanish, so
		// flag the journal degraded until an append path recovers it.
		j.degrade = true
		return fmt.Errorf("journal compact: reopen: %w", err)
	}
	j.f.Close()
	j.f = f
	j.size = int64(buf.Len())
	j.lastSnap = j.size
	j.pending = 0
	j.metrics.Count("journal.compactions", 1)
	return nil
}

// Compact forces a compaction pass regardless of size, for tests and
// operational tooling.
func (j *journal) compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.pending > 0 {
		j.pending = 0
		if err := j.f.Sync(); err != nil {
			return err
		}
	}
	return j.compactLocked()
}

// bytes returns the journal file's current size.
func (j *journal) bytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// close flushes pending checkpoints and closes the underlying file.
// Later appends fail.
func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.pending > 0 {
		j.pending = 0
		j.f.Sync()
	}
	return j.f.Close()
}
