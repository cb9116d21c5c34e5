package tracestore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"jmtam/internal/obs"
	"jmtam/internal/trace"
)

// counter and gauge read one metric back from m.
func counter(m *obs.Shared, name string) (v uint64) {
	m.Read(func(r *obs.Registry) { v = r.Counter(name).Value() })
	return v
}

func gauge(m *obs.Shared, name string) (v int64) {
	m.Read(func(r *obs.Registry) { v = r.Gauge(name).Value() })
	return v
}

func keyOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// blob returns a valid compacted recording with n fetches, so peer
// validation accepts it.
func blob(n int) []byte {
	r := &trace.Recording{}
	for i := uint32(0); i < uint32(n); i++ {
		r.Fetch(0x1000 + i*4)
	}
	return r.Compact()
}

func TestValidKey(t *testing.T) {
	good := keyOf("x")
	for _, k := range []string{good} {
		if !ValidKey(k) {
			t.Errorf("ValidKey(%q) = false", k)
		}
	}
	for _, k := range []string{"", "abc", strings.ToUpper(good), good[:63] + "g", good + "0"} {
		if ValidKey(k) {
			t.Errorf("ValidKey(%q) = true", k)
		}
	}
}

func TestStoreLRUEviction(t *testing.T) {
	m := obs.NewShared()
	data := blob(100)
	// Budget fits exactly two blobs.
	st, err := New("", int64(2*len(data)), m)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2, k3 := keyOf("1"), keyOf("2"), keyOf("3")
	for _, k := range []string{k1, k2} {
		if err := st.Put(k, data); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k1 so k2 is the LRU victim.
	if _, ok := st.Get(k1); !ok {
		t.Fatal("k1 missing")
	}
	if err := st.Put(k3, data); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(k2); ok {
		t.Fatal("k2 should have been evicted")
	}
	if _, ok := st.Get(k1); !ok {
		t.Fatal("k1 evicted despite recency")
	}
	if _, ok := st.Get(k3); !ok {
		t.Fatal("k3 missing")
	}
	if got := counter(m, "store.evictions"); got != 1 {
		t.Fatalf("store.evictions = %d, want 1", got)
	}
	if got := gauge(m, "store.mem.entries"); got != 2 {
		t.Fatalf("store.mem.entries = %d, want 2", got)
	}
	if got := gauge(m, "store.mem.bytes"); got != int64(2*len(data)) {
		t.Fatalf("store.mem.bytes = %d, want %d", got, 2*len(data))
	}
}

func TestStoreDiskTier(t *testing.T) {
	dir := t.TempDir()
	m := obs.NewShared()
	st, err := New(dir, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	key := keyOf("persist")
	data := blob(500)
	if err := st.Put(key, data); err != nil {
		t.Fatal(err)
	}
	// A fresh store over the same directory (cold memory tier) must
	// serve from disk and promote.
	st2, err := New(dir, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := st2.Get(key)
	if !ok || len(got) != len(data) {
		t.Fatalf("disk get: ok=%v len=%d want %d", ok, len(got), len(data))
	}
	if counter(m, "store.disk.hits") != 1 {
		t.Fatalf("store.disk.hits = %d, want 1", counter(m, "store.disk.hits"))
	}
	// Promoted: second get is a memory hit.
	if _, ok := st2.Get(key); !ok {
		t.Fatal("promoted get failed")
	}
	if counter(m, "store.mem.hits") != 1 {
		t.Fatalf("store.mem.hits = %d, want 1", counter(m, "store.mem.hits"))
	}
	// The atomic write left no temp files behind: just the blob and its
	// checksum sidecar.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	want := []string{key + ".jtr", key + ".jtr.sum"}
	if len(names) != 2 || names[0] != want[0] || names[1] != want[1] {
		t.Fatalf("dir contents = %v, want %v", names, want)
	}
}

func TestStoreDiskOnly(t *testing.T) {
	dir := t.TempDir()
	st, err := New(dir, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := keyOf("diskonly")
	if err := st.Put(key, blob(10)); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 {
		t.Fatalf("memory tier holds %d entries with a negative budget", st.Len())
	}
	if _, ok := st.Get(key); !ok {
		t.Fatal("disk-only get failed")
	}
}

func TestStoreRejectsBadKey(t *testing.T) {
	st, err := New("", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("not-a-key", blob(1)); err == nil {
		t.Fatal("Put accepted a malformed key")
	}
	if _, ok := st.Get("not-a-key"); ok {
		t.Fatal("Get accepted a malformed key")
	}
}

func TestDescKeyStable(t *testing.T) {
	d := Desc{Program: "mmt", Arg: 50, Impl: "AM", Nodes: 1}
	k1, k2 := d.Key(), d.Key()
	if k1 != k2 || !ValidKey(k1) {
		t.Fatalf("unstable or invalid key %q / %q", k1, k2)
	}
	variants := []Desc{
		{Program: "mmt", Arg: 51, Impl: "AM", Nodes: 1},
		{Program: "mmt", Arg: 50, Impl: "MD", Nodes: 1},
		{Program: "qs", Arg: 50, Impl: "AM", Nodes: 1},
		{Program: "mmt", Arg: 50, Impl: "AM", Nodes: 4},
		{Program: "mmt", Arg: 50, Impl: "AM", Nodes: 1, Placement: "local"},
	}
	for _, v := range variants {
		if v.Key() == k1 {
			t.Fatalf("descriptor %+v collides with %+v", v, d)
		}
	}
}

func TestRunMetaRoundTrip(t *testing.T) {
	m := RunMeta{
		Desc:         Desc{Program: "dtw", Arg: 8, Impl: "MD", Nodes: 1},
		Instructions: 123456789,
		TPQ:          3.0000000000000004, // not representable in short decimal
		IPT:          17.25,
		IPQ:          51.75000000000001,
		Threads:      4242,
		Quanta:       99,
	}
	got, err := DecodeMeta(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("round-trip = %+v, want %+v", got, m)
	}
	if _, err := DecodeMeta(nil); err == nil {
		t.Fatal("DecodeMeta accepted an empty annotation")
	}
}

func TestFleetSingleflight(t *testing.T) {
	m := obs.NewShared()
	st, err := New("", 0, m)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFleet(st, nil, nil, m)
	key := keyOf("singleflight")
	data := blob(50)

	var records atomic.Int32
	release := make(chan struct{})
	record := func(ctx context.Context) ([]byte, error) {
		records.Add(1)
		<-release
		return data, nil
	}

	const callers = 8
	var wg sync.WaitGroup
	results := make([][]byte, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, _, err := f.GetOrRecord(context.Background(), key, record)
			if err != nil {
				t.Error(err)
			}
			results[i] = got
		}(i)
	}
	// Let the goroutines pile onto the flight, then release the single
	// recorder.
	for records.Load() == 0 {
	}
	close(release)
	wg.Wait()
	if n := records.Load(); n != 1 {
		t.Fatalf("record ran %d times, want 1", n)
	}
	for i, r := range results {
		if len(r) != len(data) {
			t.Fatalf("caller %d got %d bytes, want %d", i, len(r), len(data))
		}
	}
	// The store now serves it without recording.
	got, src, err := f.GetOrRecord(context.Background(), key, func(ctx context.Context) ([]byte, error) {
		t.Fatal("record called on a warm store")
		return nil, nil
	})
	if err != nil || src != SourceLocal || len(got) != len(data) {
		t.Fatalf("warm get: src=%v err=%v", src, err)
	}
	if counter(m, "store.records") != 1 {
		t.Fatalf("store.records = %d, want 1", counter(m, "store.records"))
	}
}

func TestFleetPeerFetchAndPush(t *testing.T) {
	data := blob(200)
	key := keyOf("peered")

	// The peer is a minimal recordings endpoint over its own store.
	peerMetrics := obs.NewShared()
	peerStore, err := New("", 0, peerMetrics)
	if err != nil {
		t.Fatal(err)
	}
	var puts atomic.Int32
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		k := strings.TrimPrefix(r.URL.Path, "/v1/recordings/")
		switch r.Method {
		case http.MethodGet:
			if b, ok := peerStore.Get(k); ok {
				w.Write(b)
				return
			}
			http.Error(w, "no recording", http.StatusNotFound)
		case http.MethodPut:
			b, _ := io.ReadAll(r.Body)
			if err := peerStore.Put(k, b); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			puts.Add(1)
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	defer peer.Close()

	// Fleet A misses everywhere, records, and pushes to the peer.
	mA := obs.NewShared()
	stA, _ := New("", 0, mA)
	fA := NewFleet(stA, []string{peer.URL}, peer.Client(), mA)
	got, src, err := fA.GetOrRecord(context.Background(), key, func(ctx context.Context) ([]byte, error) {
		return data, nil
	})
	if err != nil || src != SourceRecorded || len(got) != len(data) {
		t.Fatalf("record path: src=%v err=%v", src, err)
	}
	if puts.Load() != 1 {
		t.Fatalf("peer received %d pushes, want 1", puts.Load())
	}
	if counter(mA, "store.pushes") != 1 || counter(mA, "store.peer.misses") != 1 {
		t.Fatalf("fleet A: store.pushes = %d, store.peer.misses = %d, want 1/1", counter(mA, "store.pushes"), counter(mA, "store.peer.misses"))
	}

	// Fleet B (cold local store) fetches from the peer without recording.
	mB := obs.NewShared()
	stB, _ := New("", 0, mB)
	fB := NewFleet(stB, []string{peer.URL}, peer.Client(), mB)
	got, src, err = fB.GetOrRecord(context.Background(), key, func(ctx context.Context) ([]byte, error) {
		t.Fatal("recorded despite peer having the blob")
		return nil, nil
	})
	if err != nil || src != SourcePeer || len(got) != len(data) {
		t.Fatalf("peer path: src=%v err=%v", src, err)
	}
	if counter(mB, "store.peer.hits") != 1 || counter(mB, "store.records") != 0 {
		t.Fatalf("fleet B: store.peer.hits = %d, store.records = %d, want 1/0", counter(mB, "store.peer.hits"), counter(mB, "store.records"))
	}
	if counter(mB, "store.bytes.saved") == 0 {
		t.Fatal("store.bytes.saved not credited on a peer hit")
	}
	// And it landed in B's local store.
	if _, ok := stB.Get(key); !ok {
		t.Fatal("peer fetch did not backfill the local store")
	}
}

func TestFleetRejectsCorruptPeerPayload(t *testing.T) {
	key := keyOf("corrupt")
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "this is not a recording")
	}))
	defer peer.Close()
	m := obs.NewShared()
	st, _ := New("", 0, m)
	f := NewFleet(st, []string{peer.URL}, peer.Client(), m)
	data := blob(5)
	got, src, err := f.GetOrRecord(context.Background(), key, func(ctx context.Context) ([]byte, error) {
		return data, nil
	})
	if err != nil || src != SourceRecorded || len(got) != len(data) {
		t.Fatalf("src=%v err=%v", src, err)
	}
	if counter(m, "store.peer.errors") != 1 {
		t.Fatalf("store.peer.errors = %d, want 1", counter(m, "store.peer.errors"))
	}
}
