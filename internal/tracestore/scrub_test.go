package tracestore

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"jmtam/internal/faultnet"
	"jmtam/internal/obs"
)

// corruptDiskBlob flips one bit in a stored blob's disk file.
func corruptDiskBlob(t *testing.T, st *Store, key string) {
	t.Helper()
	if _, err := faultnet.CorruptFile(st.path(key), 1); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptBlobNeverServed is the integrity tentpole: a bit-flipped
// disk blob is quarantined on read — never returned to a caller — and
// a fresh Put of the key counts as its repair.
func TestCorruptBlobNeverServed(t *testing.T) {
	dir := t.TempDir()
	m := obs.NewShared()
	st, err := New(dir, -1, m) // disk only: reads must hit the corrupt file
	if err != nil {
		t.Fatal(err)
	}
	key := keyOf("scrub-serve")
	data := blob(64)
	if err := st.Put(key, data); err != nil {
		t.Fatal(err)
	}
	corruptDiskBlob(t, st, key)

	if got, ok := st.Get(key); ok {
		t.Fatalf("corrupt blob served: %d bytes", len(got))
	}
	if counter(m, "store.corrupt") != 1 {
		t.Fatalf("store.corrupt = %d, want 1", counter(m, "store.corrupt"))
	}
	if st.Quarantined() != 1 {
		t.Fatalf("Quarantined() = %d, want 1", st.Quarantined())
	}
	// The blob was renamed aside for forensics and its sidecar removed.
	if _, err := os.Stat(st.path(key) + ".bad"); err != nil {
		t.Fatalf("no .bad quarantine file: %v", err)
	}
	if _, err := os.Stat(st.sumPath(key)); !os.IsNotExist(err) {
		t.Fatalf("sidecar survived quarantine: %v", err)
	}
	// Still a miss — the corrupt bytes are gone from the serving path.
	if _, ok := st.Get(key); ok {
		t.Fatal("quarantined key served on second read")
	}

	// A fresh Put repairs the key.
	if err := st.Put(key, data); err != nil {
		t.Fatal(err)
	}
	if counter(m, "store.repaired") != 1 {
		t.Fatalf("store.repaired = %d, want 1", counter(m, "store.repaired"))
	}
	if st.Quarantined() != 0 {
		t.Fatalf("Quarantined() = %d after repair, want 0", st.Quarantined())
	}
	got, ok := st.Get(key)
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("repaired get: ok=%v len=%d", ok, len(got))
	}
}

// TestScrubSelfHealsFromMemory corrupts the disk copy while the memory
// tier still holds good bytes: one scrub pass must rewrite the blob in
// place without asking for peer repair.
func TestScrubSelfHealsFromMemory(t *testing.T) {
	dir := t.TempDir()
	m := obs.NewShared()
	st, err := New(dir, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	key := keyOf("scrub-heal")
	data := blob(32)
	if err := st.Put(key, data); err != nil {
		t.Fatal(err)
	}
	corruptDiskBlob(t, st, key)

	need, err := st.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(need) != 0 {
		t.Fatalf("needRepair = %v, want none (memory tier had the bytes)", need)
	}
	if counter(m, "store.corrupt") != 1 || counter(m, "store.repaired") != 1 {
		t.Fatalf("corrupt=%d repaired=%d, want 1/1", counter(m, "store.corrupt"), counter(m, "store.repaired"))
	}
	if st.Quarantined() != 0 {
		t.Fatalf("Quarantined() = %d after self-heal", st.Quarantined())
	}
	onDisk, err := os.ReadFile(st.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, data) {
		t.Fatal("disk blob not restored to original bytes")
	}
}

// TestScrubReportsUnrepairable: with no memory copy the scrubber can
// only quarantine and hand the key back for fleet repair; intact blobs
// are untouched.
func TestScrubReportsUnrepairable(t *testing.T) {
	dir := t.TempDir()
	m := obs.NewShared()
	st, err := New(dir, -1, m)
	if err != nil {
		t.Fatal(err)
	}
	good, bad := keyOf("scrub-good"), keyOf("scrub-bad")
	if err := st.Put(good, blob(8)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(bad, blob(16)); err != nil {
		t.Fatal(err)
	}
	corruptDiskBlob(t, st, bad)

	need, err := st.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(need) != 1 || need[0] != bad {
		t.Fatalf("needRepair = %v, want [%s]", need, bad)
	}
	if counter(m, "store.scrub.checked") != 2 {
		t.Fatalf("store.scrub.checked = %d, want 2", counter(m, "store.scrub.checked"))
	}
	if _, ok := st.Get(good); !ok {
		t.Fatal("intact blob lost during scrub")
	}
	if st.Quarantined() != 1 {
		t.Fatalf("Quarantined() = %d, want 1", st.Quarantined())
	}
	st.Dismiss(bad)
	if st.Quarantined() != 0 {
		t.Fatalf("Quarantined() = %d after Dismiss", st.Quarantined())
	}
}

// TestLegacyBlobHealedWithSidecar: a blob written before checksums
// existed (no ".sum") is served and gains a sidecar on first read.
func TestLegacyBlobHealedWithSidecar(t *testing.T) {
	dir := t.TempDir()
	st, err := New(dir, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := keyOf("legacy")
	data := blob(4)
	if err := os.WriteFile(st.path(key), data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get(key)
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("legacy get: ok=%v", ok)
	}
	sum, err := os.ReadFile(st.sumPath(key))
	if err != nil {
		t.Fatalf("no healed sidecar: %v", err)
	}
	if want := checksum(data) + "\n"; string(sum) != want {
		t.Fatalf("sidecar = %q, want %q", sum, want)
	}
}

// TestFleetRepairFromPeer: a quarantined key is restored by fetching
// the blob from a peer; a key no peer holds is dismissed so the
// backlog (and /readyz) cannot wedge on it forever.
func TestFleetRepairFromPeer(t *testing.T) {
	dir := t.TempDir()
	m := obs.NewShared()
	st, err := New(dir, -1, m)
	if err != nil {
		t.Fatal(err)
	}
	held, lost := keyOf("repair-held"), keyOf("repair-lost")
	data := blob(24)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/recordings/"+held {
			w.Write(data)
			return
		}
		http.Error(w, "no such recording", http.StatusNotFound)
	}))
	defer peer.Close()
	fl := NewFleet(st, []string{peer.URL}, nil, m)

	for i, key := range []string{held, lost} {
		if err := st.Put(key, blob(24+i)); err != nil {
			t.Fatal(err)
		}
		corruptDiskBlob(t, st, key)
		if _, ok := st.Get(key); ok {
			t.Fatalf("corrupt %s served", key)
		}
	}
	if st.Quarantined() != 2 {
		t.Fatalf("Quarantined() = %d, want 2", st.Quarantined())
	}

	fixed := fl.Repair(context.Background(), []string{held, lost})
	if fixed != 1 {
		t.Fatalf("Repair() = %d, want 1", fixed)
	}
	if counter(m, "store.repaired") != 1 {
		t.Fatalf("store.repaired = %d, want 1", counter(m, "store.repaired"))
	}
	if counter(m, "store.repair.misses") != 1 {
		t.Fatalf("store.repair.misses = %d, want 1", counter(m, "store.repair.misses"))
	}
	// Both keys left quarantine: one repaired, one dismissed.
	if st.Quarantined() != 0 {
		t.Fatalf("Quarantined() = %d after repair pass", st.Quarantined())
	}
	got, ok := st.Get(held)
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("repaired blob: ok=%v len=%d want %d", ok, len(got), len(data))
	}
	if _, ok := st.Get(lost); ok {
		t.Fatal("dismissed key served stale bytes")
	}
}

// TestCorruptorDeterministic: the same seed over the same directory
// strikes the same file at the same offset — chaos drills reproduce.
func TestCorruptorDeterministic(t *testing.T) {
	mk := func() string {
		dir := t.TempDir()
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("%s.jtr", keyOf(fmt.Sprint(i))[:8])
			if err := os.WriteFile(dir+"/"+name, blob(8+i), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(dir+"/.hidden.jtr", []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	p1, o1, err := faultnet.NewCorruptor(mk(), ".jtr", 42).Strike()
	if err != nil {
		t.Fatal(err)
	}
	p2, o2, err := faultnet.NewCorruptor(mk(), ".jtr", 42).Strike()
	if err != nil {
		t.Fatal(err)
	}
	if o1 != o2 || filepath.Base(p1) != filepath.Base(p2) {
		t.Fatalf("strikes diverge: (%s,%d) vs (%s,%d)", p1, o1, p2, o2)
	}
}
