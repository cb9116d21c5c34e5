package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"jmtam"
	"jmtam/internal/core"
	"jmtam/internal/obs"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	// Most tests predate the result cache and exercise fresh execution
	// (code-cache hits, recording-store counters); keep it off unless a
	// test opts in explicitly. Result-cache behavior has its own tests
	// in results_test.go.
	if cfg.ResultMemBytes == 0 {
		cfg.ResultMemBytes = -1
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// streamLine is the decoded form of one NDJSON event.
type streamLine struct {
	Type   string          `json:"type"`
	ID     string          `json:"id"`
	Index  int             `json:"index"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// readStream decodes every NDJSON line of a streaming submit response.
func readStream(t *testing.T, resp *http.Response) []streamLine {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	var lines []streamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// waitState polls a job until it reaches a terminal state.
func waitState(t *testing.T, base, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %q (error %q), want %q", id, st.State, st.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %q in time", id, want)
	return JobStatus{}
}

// directResult computes the expected wire document for a run request by
// executing it through the façade and converting with the same
// runResultOf the server uses.
func directResult(t *testing.T, prog string, arg int, impl jmtam.Impl, penalties []int, geoms ...jmtam.CacheConfig) []byte {
	t.Helper()
	res, err := jmtam.Run(impl, jmtam.Benchmark(prog, arg), jmtam.Options{}, geoms...)
	if err != nil {
		t.Fatal(err)
	}
	doc := runResultOf(prog, arg, impl, res.Instructions, res.Reads, res.Writes,
		res.Threads, res.Quanta, res.TPQ, res.IPT, res.IPQ, res.Caches, penalties)
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunStreamMatchesDirect is the tentpole guarantee: jobs running
// concurrently on the server, two per registry backend, each stream a
// final result byte-identical to converting a direct jmtam.Run of the
// same request.
func TestRunStreamMatchesDirect(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	type runCase struct {
		prog  string
		arg   int
		impl  jmtam.Impl
		body  string
		geoms []jmtam.CacheConfig
	}
	var cases []runCase
	for _, b := range core.Backends() {
		cases = append(cases,
			runCase{"ss", 60, b.Impl,
				fmt.Sprintf(`{"program":"ss","arg":60,"impl":%q,"caches":[{"size_kb":8,"block_bytes":64,"assoc":4},{"size_kb":1,"block_bytes":64,"assoc":1}]}`, b.Name),
				[]jmtam.CacheConfig{
					{SizeBytes: 8 * 1024, BlockBytes: 64, Assoc: 4},
					{SizeBytes: 1 * 1024, BlockBytes: 64, Assoc: 1},
				}},
			runCase{"qs", 30, b.Impl,
				fmt.Sprintf(`{"program":"qs","arg":30,"impl":%q}`, b.Name),
				[]jmtam.CacheConfig{{SizeBytes: 8 * 1024, BlockBytes: 64, Assoc: 4}}})
	}

	got := make([][]streamLine, len(cases))
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var lines []streamLine
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
			for sc.Scan() {
				var l streamLine
				if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
					t.Errorf("bad line %q: %v", sc.Text(), err)
					return
				}
				lines = append(lines, l)
			}
			got[i] = lines
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i, c := range cases {
		lines := got[i]
		if len(lines) < 4 { // accepted, started, simulated, geometry*, result
			t.Fatalf("case %d: only %d stream lines", i, len(lines))
		}
		for want, l := range map[int]string{0: "accepted", 1: "started", 2: "simulated"} {
			if lines[want].Type != l {
				t.Errorf("case %d: line %d type = %q, want %q", i, want, lines[want].Type, l)
			}
		}
		geoms := c.geoms
		final := lines[len(lines)-1]
		if final.Type != "result" {
			t.Fatalf("case %d: final line type = %q (error %q)", i, final.Type, final.Error)
		}
		ngeom := 0
		for _, l := range lines {
			if l.Type == "geometry" {
				ngeom++
			}
		}
		if ngeom != len(geoms) {
			t.Errorf("case %d: %d geometry events, want %d", i, ngeom, len(geoms))
		}
		want := directResult(t, c.prog, c.arg, c.impl, []int{12, 24, 48}, geoms...)
		if !bytes.Equal(final.Result, want) {
			t.Errorf("case %d: server result differs from direct run:\nserver %s\ndirect %s",
				i, final.Result, want)
		}
	}
}

// TestDetachStatusAndCache submits the same job twice detached: both
// complete with identical results and the second hits the code cache.
func TestDetachStatusAndCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var results [2]json.RawMessage
	for i := range results {
		resp := postJSON(t, ts.URL+"/v1/runs?detach=1", `{"program":"ss","arg":40,"impl":"md"}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("detach status = %d", resp.StatusCode)
		}
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State != StateQueued && st.State != StateRunning && st.State != StateDone {
			t.Fatalf("fresh job state = %q", st.State)
		}
		final := waitState(t, ts.URL, st.ID, StateDone)
		results[i] = final.Result
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Errorf("repeat job result differs:\nfirst  %s\nsecond %s", results[0], results[1])
	}
	m := readMetricz(t, ts.URL)
	hits, misses := m.Counter("codecache.hits").Value(), m.Counter("codecache.misses").Value()
	if entries := m.Gauge("codecache.entries").Value(); hits != 1 || misses != 1 || entries != 1 {
		t.Errorf("code cache hits/misses/entries = %d/%d/%d, want 1/1/1", hits, misses, entries)
	}
}

// TestCancelFreesWorkerSlot runs a one-slot server, parks a large job
// in it, cancels the job via DELETE and checks that a quick follow-up
// job gets the slot and completes.
func TestCancelFreesWorkerSlot(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp := postJSON(t, ts.URL+"/v1/runs?detach=1", `{"program":"ss","arg":3000,"impl":"md"}`)
	var big JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&big); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts.URL, big.ID, StateRunning)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+big.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE status = %d", dresp.StatusCode)
	}
	waitState(t, ts.URL, big.ID, StateCanceled)

	resp = postJSON(t, ts.URL+"/v1/runs?detach=1", `{"program":"ss","arg":30,"impl":"md"}`)
	var small JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&small); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts.URL, small.ID, StateDone)
}

// TestSweepJob runs a one-geometry grid over MD and AM and checks the
// result carries run summaries, progress events and a Table 2 row.
func TestSweepJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := `{"workloads":[{"program":"ss","arg":40}],"sizes_kb":[8],"assocs":[4]}`
	lines := readStream(t, postJSON(t, ts.URL+"/v1/sweeps", body))
	final := lines[len(lines)-1]
	if final.Type != "result" {
		t.Fatalf("final line type = %q (error %q)", final.Type, final.Error)
	}
	nprog := 0
	for _, l := range lines {
		if l.Type == "run" {
			nprog++
		}
	}
	if nprog != 2 { // ss under MD and AM
		t.Errorf("%d progress events, want 2", nprog)
	}
	var res SweepResult
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("%d run summaries, want 2", len(res.Runs))
	}
	if len(res.Table2) != 1 || res.Table2[0].Program != "ss" {
		t.Fatalf("table2 = %+v, want one ss row", res.Table2)
	}
	if res.Table2[0].Ratio24 <= 0 {
		t.Errorf("ss ratio24 = %v, want > 0", res.Table2[0].Ratio24)
	}
}

// TestBadRequests covers the 4xx paths.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, c := range []struct {
		path, body string
		want       int
	}{
		{"/v1/runs", `{"program":"nope"}`, http.StatusBadRequest},
		{"/v1/runs", `{"program":"ss","impl":"cray"}`, http.StatusBadRequest},
		{"/v1/runs", `{"program":"ss","bogus":1}`, http.StatusBadRequest},
		{"/v1/runs", `{"program":"ss","caches":[{"size_kb":3,"block_bytes":64,"assoc":4}]}`, http.StatusBadRequest},
		{"/v1/runs", `{"program":"ss","caches":[{"size_kb":8,"block_bytes":64,"assoc":3}]}`, http.StatusBadRequest},
		{"/v1/sweeps", `{"scale":"galactic"}`, http.StatusBadRequest},
		{"/v1/sweeps", `{"workloads":[{"program":"ss","arg":30}],"sizes_kb":[1],"assocs":[32],"impls":["md"]}`, http.StatusBadRequest},
	} {
		resp := postJSON(t, ts.URL+c.path, c.body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("POST %s %s: status %d, want %d", c.path, c.body, resp.StatusCode, c.want)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/runs/r-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET missing job: status %d, want 404", resp.StatusCode)
	}
}

// TestMetricz checks the server-wide registry surfaces job counters and
// pool gauges after a job completes.
func TestMetricz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	lines := readStream(t, postJSON(t, ts.URL+"/v1/runs", `{"program":"ss","arg":30}`))
	if lines[len(lines)-1].Type != "result" {
		t.Fatalf("job did not finish: %+v", lines[len(lines)-1])
	}
	m := readMetricz(t, ts.URL)
	for name, want := range map[string]uint64{
		"jobs.submitted": 1, "jobs.started": 1, "jobs.finished": 1,
		"codecache.misses": 1,
	} {
		if got := m.Counter(name).Value(); got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	if g := m.Gauge("jobs.running"); g.Value() != 0 || g.Max() != 1 {
		t.Errorf("jobs.running = value %d max %d, want value 0 max 1", g.Value(), g.Max())
	}
	if v := m.Gauge("pool.slots").Value(); v != 1 {
		t.Errorf("pool.slots = %d, want 1", v)
	}
	if n := m.Histogram("job.latency.ms.run").Count(); n != 1 {
		t.Errorf("job.latency.ms.run count = %d, want 1", n)
	}
}

// TestFinishJobSettlesBeforeTerminalLine pins finishJob's order for a
// finished, a failed and a canceled job: its counter, its latency and
// the tenant's admission slot are all settled before the terminal line
// reaches any stream, so a client that has read that line sees the
// outcome on /metricz and can submit again at once.
func TestFinishJobSettlesBeforeTerminalLine(t *testing.T) {
	for _, c := range []struct {
		err     error
		counter string
	}{
		{nil, "jobs.finished"},
		{fmt.Errorf("boom"), "jobs.failed"},
		{context.Canceled, "jobs.canceled"},
	} {
		s, _ := newTestServer(t, Config{Workers: 1})
		job := s.jobs.add("run", "")
		released := false
		job.setRelease(func() {
			released = true
			job.mu.Lock()
			lines := len(job.lines)
			job.mu.Unlock()
			s.metrics.Read(func(r *obs.Registry) {
				if n, lat := r.Counter(c.counter).Value(), r.Histogram("job.latency.ms.run").Count(); lines != 0 || n != 1 || lat != 1 {
					t.Errorf("%s: at the slot release the stream has %d lines, the counter reads %d and the latency count %d; want 0, 1, 1",
						c.counter, lines, n, lat)
				}
			})
		})
		s.finishJob(job, json.RawMessage(`{}`), c.err, time.Now())
		if !released || len(job.lines) != 1 || !job.State().Terminal() {
			t.Errorf("%s: released %v, %d lines, state %v; want the slot released, one terminal line and a terminal state",
				c.counter, released, len(job.lines), job.State())
		}
	}
}

// TestListJobs checks the list view enumerates jobs in submission order
// without result payloads.
func TestListJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var ids []string
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/runs?detach=1", `{"program":"ss","arg":30}`)
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ids = append(ids, st.ID)
		waitState(t, ts.URL, st.ID, StateDone)
	}
	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("list has %d jobs, want 2", len(list))
	}
	for i, st := range list {
		if st.ID != ids[i] {
			t.Errorf("list[%d].ID = %s, want %s", i, st.ID, ids[i])
		}
		if st.Result != nil {
			t.Errorf("list[%d] carries a result payload", i)
		}
	}
}

// TestStreamReplayAfterCompletion checks a late GET ?stream=1 replays
// the full event stream of a finished job.
func TestStreamReplayAfterCompletion(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	live := readStream(t, postJSON(t, ts.URL+"/v1/runs", `{"program":"ss","arg":30}`))
	id := live[0].ID
	resp, err := http.Get(fmt.Sprintf("%s/v1/runs/%s?stream=1", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	replay := readStream(t, resp)
	if len(replay) != len(live) {
		t.Fatalf("replay has %d lines, live had %d", len(replay), len(live))
	}
	if replay[len(replay)-1].Type != "result" {
		t.Errorf("replay final type = %q", replay[len(replay)-1].Type)
	}
}
