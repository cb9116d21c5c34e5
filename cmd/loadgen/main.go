// Command loadgen is a closed-loop load harness for a tamsimd front
// door. It drives concurrent simulation jobs from one or more tenants,
// measures completed-job throughput and latency percentiles from both
// sides (exact client-observed, and estimated from the daemon's
// /metricz log2 histograms), and can assert a service-level objective
// so CI can gate on serving behavior:
//
//	loadgen -addr http://127.0.0.1:8347 -duration 10s
//	loadgen -tenants 'alice:key-a:4,bob:key-b:4' -expect-429 bob
//	loadgen -kind mix -variants 3 -slo-p99-ms 2000 -min-qps 1
//
// Before loading, loadgen polls the daemon's /readyz (readiness, not
// liveness) for up to -ready-timeout: a daemon still replaying its
// journal or already draining would make every measurement a lie, so
// an unready target exits 2 (setup error) instead of failing the SLO.
//
// Each tenant runs N closed-loop workers: submit a job, stream its
// NDJSON events to the terminal line, record the outcome, repeat until
// the deadline. Workers cycle through -variants distinct request
// descriptors (problem sizes), so the mix exercises both fresh
// execution and — once every descriptor has been seen — the fleet
// result cache; "cached" stream events are counted per tenant. A 429
// quota rejection is an expected outcome for an over-provisioned
// tenant, counted separately and retried after a short pause.
//
// The exit status is the assertion verdict: 0 when every requested
// assertion (-slo-p99-ms, -min-qps, -expect-429, -expect-cache-hits)
// holds, 1 otherwise, with the failures listed in the JSON summary.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jmtam/api"
	"jmtam/internal/core"
	"jmtam/internal/obs"
)

type tenantSpec struct {
	name    string
	key     string
	workers int
}

// parseTenants parses -tenants: comma-separated name:key:workers
// triples. The key may be empty when the daemon runs untenanted.
func parseTenants(s string) ([]tenantSpec, error) {
	var specs []tenantSpec
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad tenant %q (want name:key:workers)", part)
		}
		var workers int
		if _, err := fmt.Sscanf(fields[2], "%d", &workers); err != nil || workers < 1 {
			return nil, fmt.Errorf("bad worker count in %q", part)
		}
		specs = append(specs, tenantSpec{name: fields[0], key: fields[1], workers: workers})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no tenants")
	}
	return specs, nil
}

// tenantStats accumulates one tenant's outcomes across its workers.
type tenantStats struct {
	mu        sync.Mutex
	requests  int
	ok        int
	cached    int
	http429   int
	errors    int
	latencies []float64 // ms, completed jobs only
	variant   atomic.Uint64
}

type tenantSummary struct {
	Requests int     `json:"requests"`
	OK       int     `json:"ok"`
	Cached   int     `json:"cached"`
	HTTP429  int     `json:"http_429"`
	Errors   int     `json:"errors"`
	QPS      float64 `json:"qps"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

func (t *tenantStats) summary(elapsed time.Duration) tenantSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	return tenantSummary{
		Requests: t.requests,
		OK:       t.ok,
		Cached:   t.cached,
		HTTP429:  t.http429,
		Errors:   t.errors,
		QPS:      float64(t.ok) / elapsed.Seconds(),
		P50Ms:    percentile(t.latencies, 50),
		P99Ms:    percentile(t.latencies, 99),
	}
}

// serverSummary is what loadgen reads back from /metricz after the
// run: result-cache traffic and the daemon-side job latency
// percentiles estimated from the log2 histograms.
type serverSummary struct {
	ResultsServed uint64 `json:"results_served"`
	ResultsHits   uint64 `json:"results_hits"`
	RunP50Ms      uint64 `json:"run_p50_ms,omitempty"`
	RunP99Ms      uint64 `json:"run_p99_ms,omitempty"`
	SweepP50Ms    uint64 `json:"sweep_p50_ms,omitempty"`
	SweepP99Ms    uint64 `json:"sweep_p99_ms,omitempty"`
}

type summary struct {
	DurationSec float64                  `json:"duration_sec"`
	Tenants     map[string]tenantSummary `json:"tenants"`
	Overall     tenantSummary            `json:"overall"`
	Server      serverSummary            `json:"server"`
	Failures    []string                 `json:"failures,omitempty"`
}

var (
	addr     = flag.String("addr", "http://127.0.0.1:8347", "tamsimd base URL")
	tenants  = flag.String("tenants", "local::2", "comma-separated name:key:workers (empty key = untenanted daemon)")
	duration = flag.Duration("duration", 10*time.Second, "load window")
	kind     = flag.String("kind", "run", "job mix: run|sweep|mix")
	variants = flag.Int("variants", 4, "distinct request descriptors cycled per tenant")
	argBase  = flag.Int("arg-base", 8, "smallest problem size; variant v uses arg-base+v")
	sloP99   = flag.Float64("slo-p99-ms", 0, "assert overall client p99 <= this (0 = off)")
	minQPS   = flag.Float64("min-qps", 0, "assert overall completed-job QPS >= this (0 = off)")
	want429  = flag.String("expect-429", "", "assert this tenant saw at least one quota rejection")
	wantHits = flag.Bool("expect-cache-hits", false, "assert at least one job was served from the result cache")
	readyFor = flag.Duration("ready-timeout", 10*time.Second, "wait this long for the daemon's /readyz before loading (0 = skip preflight)")
	out      = flag.String("o", "", "write the JSON summary here (default stdout)")
	implsArg = flag.String("impls", "am", "comma-separated backends the generated jobs run (known: "+strings.Join(core.BackendNames(), ", ")+")")

	// implNames is the validated -impls list; run jobs use the first
	// entry and sweep jobs the full list.
	implNames []string
)

// awaitReady polls /readyz until the daemon reports ready or the
// timeout passes. Loading a daemon that is still recovering its
// journal — or already draining — measures the wrong thing, so an
// unready daemon is a setup error (exit 2), not an SLO failure.
func awaitReady(base string, timeout time.Duration) error {
	if timeout <= 0 {
		return nil
	}
	deadline := time.Now().Add(timeout)
	last := "no response"
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = fmt.Sprintf("%s: %s", resp.Status, bytes.TrimSpace(body))
		} else {
			last = err.Error()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not ready after %s (%s)", timeout, last)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func main() {
	flag.Parse()
	specs, err := parseTenants(*tenants)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	if *kind != "run" && *kind != "sweep" && *kind != "mix" {
		fmt.Fprintln(os.Stderr, "loadgen: -kind must be run|sweep|mix")
		os.Exit(2)
	}
	impls, err := core.ParseImpls(*implsArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	implNames = make([]string, len(impls))
	for i, impl := range impls {
		implNames[i] = impl.Name()
	}

	base := strings.TrimRight(*addr, "/")
	if err := awaitReady(base, *readyFor); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	stats := make(map[string]*tenantStats, len(specs))
	for _, sp := range specs {
		stats[sp.name] = &tenantStats{}
	}

	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	for _, sp := range specs {
		for w := 0; w < sp.workers; w++ {
			wg.Add(1)
			go func(sp tenantSpec, w int) {
				defer wg.Done()
				worker(base, sp, w, stats[sp.name], deadline)
			}(sp, w)
		}
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)

	sum := summary{
		DurationSec: elapsed.Seconds(),
		Tenants:     make(map[string]tenantSummary, len(specs)),
	}
	var all tenantStats
	for name, st := range stats {
		ts := st.summary(elapsed)
		sum.Tenants[name] = ts
		all.requests += ts.Requests
		all.ok += ts.OK
		all.cached += ts.Cached
		all.http429 += ts.HTTP429
		all.errors += ts.Errors
		st.mu.Lock()
		all.latencies = append(all.latencies, st.latencies...)
		st.mu.Unlock()
	}
	sum.Overall = all.summary(elapsed)
	sum.Server = scrapeServer(base)

	if *sloP99 > 0 && sum.Overall.P99Ms > *sloP99 {
		sum.Failures = append(sum.Failures, fmt.Sprintf("p99 %.1fms exceeds SLO %.1fms", sum.Overall.P99Ms, *sloP99))
	}
	if *minQPS > 0 && sum.Overall.QPS < *minQPS {
		sum.Failures = append(sum.Failures, fmt.Sprintf("QPS %.2f below floor %.2f", sum.Overall.QPS, *minQPS))
	}
	if *want429 != "" {
		if ts, ok := sum.Tenants[*want429]; !ok || ts.HTTP429 == 0 {
			sum.Failures = append(sum.Failures, fmt.Sprintf("tenant %q saw no quota rejections", *want429))
		}
	}
	if *wantHits && sum.Overall.Cached == 0 && sum.Server.ResultsServed == 0 {
		sum.Failures = append(sum.Failures, "no result-cache hits observed")
	}

	doc, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	doc = append(doc, '\n')
	if *out == "" {
		os.Stdout.Write(doc)
	} else if err := os.WriteFile(*out, doc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	if len(sum.Failures) > 0 {
		for _, f := range sum.Failures {
			fmt.Fprintln(os.Stderr, "loadgen: FAIL:", f)
		}
		os.Exit(1)
	}
}

// worker is one closed-loop client: submit, stream to terminal,
// record, repeat. The variant counter is shared per tenant, so its
// workers spread across the descriptor space instead of racing each
// other on one key (those would still coalesce, which is fine — but
// spreading exercises more of the cache).
func worker(base string, sp tenantSpec, w int, st *tenantStats, deadline time.Time) {
	job := w
	for time.Now().Before(deadline) {
		v := int(st.variant.Add(1)) % *variants
		k := *kind
		if k == "mix" {
			if job%4 == 3 { // one sweep per four runs: sweeps are heavier
				k = "sweep"
			} else {
				k = "run"
			}
		}
		job++
		oneJob(base, sp, k, *argBase+v, st)
	}
}

// request builds the variant's descriptor. Problem sizes stay small
// (selection sort of arg elements) so a closed loop completes many
// jobs; distinct args give distinct result-cache keys.
func request(kind string, arg int) ([]byte, string) {
	if kind == "sweep" {
		req := api.SweepRequest{
			Workloads: []api.WorkloadSpec{{Program: "ss", Arg: arg}},
			SizesKB:   []int{8},
			Penalties: []int{12},
			Impls:     implNames,
		}
		b, _ := json.Marshal(req)
		return b, "/v1/sweeps"
	}
	req := api.RunRequest{Program: "ss", Arg: arg, Impl: implNames[0], Penalties: []int{12}}
	b, _ := json.Marshal(req)
	return b, "/v1/runs"
}

// oneJob submits one job and follows its stream to the terminal event.
func oneJob(base string, sp tenantSpec, kind string, arg int, st *tenantStats) {
	body, path := request(kind, arg)
	st.mu.Lock()
	st.requests++
	st.mu.Unlock()

	begin := time.Now()
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		record(st, func() { st.errors++ })
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if sp.key != "" {
		req.Header.Set("Authorization", "Bearer "+sp.key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		record(st, func() { st.errors++ })
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		limited, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		apiErr := api.DecodeError(resp.StatusCode, limited)
		if resp.StatusCode == http.StatusTooManyRequests || apiErr.Code == api.CodeQuotaExhausted {
			record(st, func() { st.http429++ })
			// Back off briefly; the point of an over-quota tenant is to
			// collect 429s, not to hot-spin the front door.
			time.Sleep(50 * time.Millisecond)
		} else {
			record(st, func() { st.errors++ })
		}
		return
	}

	cached := false
	last, err := api.ReadStream(resp.Body, func(ev api.Event, _ []byte) {
		cached = cached || ev.Type == api.EventCached
	})
	done := err == nil && last.Type == api.EventResult
	ms := float64(time.Since(begin)) / float64(time.Millisecond)
	record(st, func() {
		if !done {
			st.errors++
			return
		}
		st.ok++
		if cached {
			st.cached++
		}
		st.latencies = append(st.latencies, ms)
	})
}

func record(st *tenantStats, f func()) {
	st.mu.Lock()
	defer st.mu.Unlock()
	f()
}

// scrapeServer reads /metricz (auth-exempt) and distills the serving
// counters and daemon-side latency estimates the summary reports.
func scrapeServer(base string) serverSummary {
	var sv serverSummary
	resp, err := http.Get(base + "/metricz")
	if err != nil {
		return sv
	}
	defer resp.Body.Close()
	m, err := obs.ReadJSON(resp.Body)
	if err != nil {
		return sv
	}
	sv.ResultsServed = m.Counter("results.served").Value()
	sv.ResultsHits = m.Counter("results.hits").Value()
	run, sweep := m.Histogram("job.latency.ms.run"), m.Histogram("job.latency.ms.sweep")
	sv.RunP50Ms, sv.RunP99Ms = run.Percentile(50), run.Percentile(99)
	sv.SweepP50Ms, sv.SweepP99Ms = sweep.Percentile(50), sweep.Percentile(99)
	return sv
}
