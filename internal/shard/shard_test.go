package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jmtam/api"
	"jmtam/internal/faultnet"
	"jmtam/internal/obs"
)

// testSpec is a small synthetic grid: 2 workloads × 2 impls = 4 shards,
// 2×2 geometries each.
func testSpec() *Spec {
	return &Spec{
		Workloads:  []Workload{{Program: "ss", Arg: 40}, {Program: "gauss", Arg: 8}},
		SizesKB:    []int{1, 8},
		Assocs:     []int{1, 4},
		BlockBytes: 64,
		Penalties:  []int{12},
		Impls:      []string{"md", "am"},
	}
}

// fakeUnit derives a deterministic row for a one-unit worker request:
// a pure function of (program, arg, impl, geometry, penalties), so every
// stub worker agrees and position-indexed reassembly is checkable.
func fakeUnit(req api.SweepRequest) api.SweepRunSummary {
	w := req.Workloads[0]
	impl, _ := parseImpl(req.Impls[0])
	h := uint64(len(w.Program))*1_000_000 + uint64(w.Arg)*1000 + uint64(len(impl.String()))
	u := api.SweepRunSummary{
		Program: w.Program, Arg: w.Arg, Impl: impl.String(),
		Instructions: h, TPQ: 1.5, IPT: 2.25, IPQ: 3.375,
	}
	for _, kb := range req.SizesKB {
		for _, a := range req.Assocs {
			c := api.CacheResult{
				CacheSpec: api.CacheSpec{SizeKB: kb, BlockBytes: req.BlockBytes, Assoc: a},
				IMisses:   h%97 + uint64(1024/kb), DMisses: uint64(a), Writebacks: 1,
			}
			for _, p := range req.Penalties {
				c.Cycles = append(c.Cycles, api.CycleCount{Penalty: p, Cycles: h + uint64(p)*(c.IMisses+c.DMisses)})
			}
			u.Caches = append(u.Caches, c)
		}
	}
	return u
}

func wantUnits(spec *Spec) []api.SweepRunSummary {
	var want []api.SweepRunSummary
	for _, u := range spec.Units() {
		want = append(want, fakeUnit(api.SweepRequest{
			Workloads: []Workload{u.Workload}, Impls: []string{u.Impl},
			SizesKB: spec.SizesKB, Assocs: spec.Assocs, BlockBytes: spec.BlockBytes,
			Penalties: spec.Penalties,
		}))
	}
	return want
}

// stubWorker serves /readyz (the coordinator's registration probe) and
// a minimal /v1/sweeps that streams the fakeUnit result. beforeResult,
// when non-nil, runs after the request is parsed and may substitute the
// terminal behavior entirely by returning false.
func stubWorker(t *testing.T, beforeResult func(w http.ResponseWriter, r *http.Request, req api.SweepRequest) bool) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		var req api.SweepRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		if beforeResult != nil && !beforeResult(w, r, req) {
			return
		}
		doc, _ := json.Marshal(api.SweepResult{Runs: []api.SweepRunSummary{fakeUnit(req)}})
		fmt.Fprintf(w, `{"type":"accepted"}`+"\n")
		fmt.Fprintf(w, `{"type":"result","result":%s}`+"\n", doc)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func counterValue(m *obs.Shared, name string) uint64 {
	var v uint64
	m.Read(func(reg *obs.Registry) { v = reg.Counter(name).Value() })
	return v
}

// assertCounter checks the counter is at least lo and, when exact is
// true, exactly lo.
func assertCounter(t *testing.T, m *obs.Shared, name string, lo uint64, exact bool) {
	t.Helper()
	v := counterValue(m, name)
	if v < lo || (exact && v != lo) {
		t.Fatalf("%s = %d, want >= %d (exact=%v)", name, v, lo, exact)
	}
}

func TestSpecUnitsOrder(t *testing.T) {
	spec := testSpec()
	units := spec.Units()
	want := []Unit{
		{Workload{Program: "ss", Arg: 40}, "md"}, {Workload{Program: "ss", Arg: 40}, "am"},
		{Workload{Program: "gauss", Arg: 8}, "md"}, {Workload{Program: "gauss", Arg: 8}, "am"},
	}
	if !reflect.DeepEqual(units, want) {
		t.Fatalf("units = %v, want %v", units, want)
	}
	geoms := spec.CacheConfigs()
	if len(geoms) != 4 || geoms[0].SizeBytes != 1024 || geoms[1].Assoc != 4 || geoms[2].SizeBytes != 8192 {
		t.Fatalf("geoms order wrong: %+v", geoms)
	}
}

func TestCoordinatorAllRemote(t *testing.T) {
	w1 := stubWorker(t, nil)
	w2 := stubWorker(t, nil)
	m := obs.NewShared()
	c := New(Config{Workers: []string{w1.URL, w2.URL}, Metrics: m})
	spec := testSpec()
	got, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := wantUnits(spec); !reflect.DeepEqual(got, want) {
		t.Fatalf("results not position-indexed:\ngot  %+v\nwant %+v", got, want)
	}
	assertCounter(t, m, "shard.shards", 4, true)
	assertCounter(t, m, "shard.remote", 4, true)
	assertCounter(t, m, "shard.retries", 0, true)
	assertCounter(t, m, "shard.requeues", 0, true)
	assertCounter(t, m, "shard.local", 0, true)
}

func TestCoordinatorRetriesTransientThenSucceeds(t *testing.T) {
	var badCalls atomic.Int64
	bad := stubWorker(t, func(w http.ResponseWriter, r *http.Request, req api.SweepRequest) bool {
		badCalls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		return false
	})
	good := stubWorker(t, nil)
	m := obs.NewShared()
	c := New(Config{
		Workers: []string{bad.URL, good.URL}, Metrics: m,
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
	})
	spec := testSpec()
	got, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := wantUnits(spec); !reflect.DeepEqual(got, want) {
		t.Fatalf("faulty worker changed results")
	}
	if badCalls.Load() == 0 {
		t.Fatal("bad worker was never tried")
	}
	assertCounter(t, m, "shard.retries", 1, false)
	assertCounter(t, m, "shard.remote", uint64(len(spec.Units())), true)
}

func TestCoordinatorPermanentErrorAborts(t *testing.T) {
	bad := stubWorker(t, func(w http.ResponseWriter, r *http.Request, req api.SweepRequest) bool {
		http.Error(w, "no such program", http.StatusBadRequest)
		return false
	})
	c := New(Config{Workers: []string{bad.URL}, BaseBackoff: time.Millisecond})
	_, err := c.Run(context.Background(), testSpec())
	var pe *PermanentError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PermanentError", err)
	}
}

func TestCoordinatorLocalFallbackWhenAllDead(t *testing.T) {
	// A listener that is closed immediately: connection refused, the
	// transient flavor a crashed worker produces.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	m := obs.NewShared()
	var events []Event
	var mu sync.Mutex
	c := New(Config{
		Workers: []string{deadURL}, Metrics: m,
		MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond,
		OnEvent: func(e Event) { mu.Lock(); events = append(events, e); mu.Unlock() },
		Local: func(ctx context.Context, spec *Spec, u Unit) (api.SweepRunSummary, error) {
			return fakeUnit(api.SweepRequest{
				Workloads: []Workload{u.Workload}, Impls: []string{u.Impl},
				SizesKB: spec.SizesKB, Assocs: spec.Assocs, BlockBytes: spec.BlockBytes,
				Penalties: spec.Penalties,
			}), nil
		},
	})
	spec := testSpec()
	got, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := wantUnits(spec); !reflect.DeepEqual(got, want) {
		t.Fatalf("local fallback results not position-indexed:\ngot  %+v\nwant %+v", got, want)
	}
	assertCounter(t, m, "shard.local", uint64(len(spec.Units())), true)
	assertCounter(t, m, "shard.breaker.opens", 1, false)
	mu.Lock()
	defer mu.Unlock()
	var sawLocal bool
	for _, e := range events {
		if e.Type == "local" {
			sawLocal = true
		}
	}
	if !sawLocal {
		t.Fatalf("no local event in %+v", events)
	}
}

// TestCoordinatorNoLocalFails: with no worker and no Local, a shard
// fails rather than silently degrading.
func TestCoordinatorNoLocalFails(t *testing.T) {
	c := New(Config{})
	if _, err := c.Run(context.Background(), testSpec()); err == nil {
		t.Fatal("a coordinator with no workers and no Local should fail")
	}
}

// TestCoordinatorLocalErrorIsPermanent: a Local failure is the
// simulation's own and aborts the run as a PermanentError.
func TestCoordinatorLocalErrorIsPermanent(t *testing.T) {
	boom := errors.New("boom")
	c := New(Config{Local: func(context.Context, *Spec, Unit) (api.SweepRunSummary, error) {
		return api.SweepRunSummary{}, boom
	}})
	_, err := c.Run(context.Background(), testSpec())
	var pe *PermanentError
	if !errors.As(err, &pe) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want a PermanentError wrapping boom", err)
	}
}

// TestCoordinatorRejectsIncompleteRows: a worker row whose cache rows
// lack a cycle count per penalty is not trusted.
func TestCoordinatorRejectsIncompleteRows(t *testing.T) {
	short := stubWorker(t, func(w http.ResponseWriter, r *http.Request, req api.SweepRequest) bool {
		u := fakeUnit(req)
		for i := range u.Caches {
			u.Caches[i].Cycles = nil
		}
		doc, _ := json.Marshal(api.SweepResult{Runs: []api.SweepRunSummary{u}})
		fmt.Fprintf(w, `{"type":"result","result":%s}`+"\n", doc)
		return false
	})
	c := New(Config{Workers: []string{short.URL}, MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond})
	_, err := c.Run(context.Background(), testSpec())
	if err == nil || !strings.Contains(err.Error(), "cycle counts") {
		t.Fatalf("err = %v, want a missing-cycles rejection", err)
	}
}

// TestCoordinatorRejectsRowsThatDoNotAddUp: a worker row whose cycle
// counts disagree with its misses is refused.
func TestCoordinatorRejectsRowsThatDoNotAddUp(t *testing.T) {
	bad := stubWorker(t, func(w http.ResponseWriter, r *http.Request, req api.SweepRequest) bool {
		u := fakeUnit(req)
		u.Caches[1].IMisses++
		doc, _ := json.Marshal(api.SweepResult{Runs: []api.SweepRunSummary{u}})
		fmt.Fprintf(w, `{"type":"result","result":%s}`+"\n", doc)
		return false
	})
	c := New(Config{Workers: []string{bad.URL}, MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond})
	_, err := c.Run(context.Background(), testSpec())
	if err == nil || !strings.Contains(err.Error(), "add up to") {
		t.Fatalf("err = %v, want a cycles-versus-misses rejection", err)
	}
}

// TestCheckRowArithmetic checks each rule of CheckRow on one true row
// changed in one place: the geometry each cache row names, the penalty
// of each cycle count, and cycles against instructions and misses. A
// changed writeback count enters no cycle count and passes.
func TestCheckRowArithmetic(t *testing.T) {
	spec := testSpec()
	spec.Penalties = []int{12, 24}
	u := spec.Units()[0]
	row := wantUnits(spec)[0]
	if err := spec.CheckRow(u, row); err != nil {
		t.Fatalf("true row refused: %v", err)
	}
	for name, tc := range map[string]struct {
		change func(r *api.SweepRunSummary)
		want   string
	}{
		"geometries swapped":   {func(r *api.SweepRunSummary) { r.Caches[0], r.Caches[1] = r.Caches[1], r.Caches[0] }, "geometry row 0"},
		"block size":           {func(r *api.SweepRunSummary) { r.Caches[2].BlockBytes = 32 }, "geometry row 2"},
		"penalties swapped":    {func(r *api.SweepRunSummary) { c := r.Caches[3].Cycles; c[0], c[1] = c[1], c[0] }, "at penalty 24, want 12"},
		"i_misses":             {func(r *api.SweepRunSummary) { r.Caches[1].IMisses += 10 }, "add up to"},
		"d_misses":             {func(r *api.SweepRunSummary) { r.Caches[0].DMisses-- }, "add up to"},
		"instructions":         {func(r *api.SweepRunSummary) { r.Instructions++ }, "add up to"},
		"cycles":               {func(r *api.SweepRunSummary) { r.Caches[2].Cycles[1].Cycles++ }, "add up to"},
		"writebacks unchecked": {func(r *api.SweepRunSummary) { r.Caches[0].Writebacks += 5 }, ""},
		"8K i_misses above 1K": {func(r *api.SweepRunSummary) { missMore(r, 3, 1, true) }, "LRU inclusion"},
		"8K d_misses above 1K": {func(r *api.SweepRunSummary) { missMore(r, 2, 0, false) }, "LRU inclusion"},
	} {
		r := wantUnits(spec)[0]
		tc.change(&r)
		err := spec.CheckRow(u, r)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
}

// missMore raises geometry row big's I- or D-misses to one above those
// of row small and recomputes its cycles, so that only the LRU
// inclusion bound refuses the row.
func missMore(r *api.SweepRunSummary, big, small int, fetch bool) {
	c := &r.Caches[big]
	if fetch {
		c.IMisses = r.Caches[small].IMisses + 1
	} else {
		c.DMisses = r.Caches[small].DMisses + 1
	}
	for i := range c.Cycles {
		c.Cycles[i].Cycles = api.Cycles(r.Instructions, c.Cycles[i].Penalty, c.IMisses, c.DMisses)
	}
}

// TestCoordinatorRejectsRowsAboveLRUInclusion: a worker row whose 8K
// misses exceed its 1K ones at one associativity is refused, though its
// cycles add up.
func TestCoordinatorRejectsRowsAboveLRUInclusion(t *testing.T) {
	bad := stubWorker(t, func(w http.ResponseWriter, r *http.Request, req api.SweepRequest) bool {
		u := fakeUnit(req)
		missMore(&u, 3, 1, true)
		doc, _ := json.Marshal(api.SweepResult{Runs: []api.SweepRunSummary{u}})
		fmt.Fprintf(w, `{"type":"result","result":%s}`+"\n", doc)
		return false
	})
	c := New(Config{Workers: []string{bad.URL}, MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond})
	_, err := c.Run(context.Background(), testSpec())
	if err == nil || !strings.Contains(err.Error(), "LRU inclusion") {
		t.Fatalf("err = %v, want an LRU inclusion rejection", err)
	}
}

func TestCoordinatorLeaseExpiryRequeues(t *testing.T) {
	// The hung worker parses the request then stalls until the client
	// gives up: a worker that died mid-shard without closing the socket.
	hung := stubWorker(t, func(w http.ResponseWriter, r *http.Request, req api.SweepRequest) bool {
		w.(http.Flusher).Flush()
		<-r.Context().Done()
		return false
	})
	good := stubWorker(t, nil)
	m := obs.NewShared()
	c := New(Config{
		Workers: []string{hung.URL, good.URL}, Metrics: m,
		LeaseTimeout: 80 * time.Millisecond,
		BaseBackoff:  time.Millisecond, MaxBackoff: time.Millisecond,
		MaxAttempts: 6,
	})
	spec := testSpec()
	got, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := wantUnits(spec); !reflect.DeepEqual(got, want) {
		t.Fatalf("hung worker changed results")
	}
	assertCounter(t, m, "shard.requeues", 1, false)
}

func TestCoordinatorHedgesStragglers(t *testing.T) {
	slow := stubWorker(t, func(w http.ResponseWriter, r *http.Request, req api.SweepRequest) bool {
		time.Sleep(300 * time.Millisecond)
		return true
	})
	fast := stubWorker(t, nil)
	m := obs.NewShared()
	c := New(Config{
		Workers: []string{slow.URL, fast.URL}, Metrics: m,
		HedgeAfter:  20 * time.Millisecond,
		BaseBackoff: time.Millisecond,
	})
	spec := &Spec{
		Workloads:  []Workload{{Program: "ss", Arg: 40}},
		SizesKB:    []int{1},
		Assocs:     []int{1},
		BlockBytes: 64,
		Penalties:  []int{12},
		Impls:      []string{"md"},
	}
	got, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := wantUnits(spec); !reflect.DeepEqual(got, want) {
		t.Fatalf("hedged result differs")
	}
	// Round-robin start order decides which worker is primary, so the
	// hedge counter is 0 (fast primary) or 1 (slow primary); either way
	// the slow attempt must not have delayed correctness above.
	if v := counterValue(m, "shard.hedges"); v > 1 {
		t.Fatalf("shard.hedges = %d, want 0 or 1", v)
	}
}

func TestCoordinatorDeterministicUnderChaos(t *testing.T) {
	good := stubWorker(t, nil)
	clean := New(Config{Workers: []string{good.URL}})
	spec := testSpec()
	want, err := clean.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	for _, seed := range []uint64{1, 7, 42} {
		m := obs.NewShared()
		chaotic := New(Config{
			Workers: []string{good.URL}, Metrics: m,
			Transport: faultnet.NewTransport(nil, faultnet.Plan{
				Seed: seed, Drop: 0.2, Err5xx: 0.2, Disconnect: 0.2,
			}),
			BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
			MaxAttempts: 20, Seed: seed,
		})
		got, err := chaotic.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: chaos changed results", seed)
		}
	}
}

func TestCoordinatorCancelPropagates(t *testing.T) {
	hung := stubWorker(t, func(w http.ResponseWriter, r *http.Request, req api.SweepRequest) bool {
		w.(http.Flusher).Flush()
		<-r.Context().Done()
		return false
	})
	c := New(Config{Workers: []string{hung.URL}})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	_, err := c.Run(ctx, testSpec())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
