package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"jmtam/api"
	"jmtam/internal/cache"
	"jmtam/internal/core"
	"jmtam/internal/experiments"
	"jmtam/internal/programs"
	"jmtam/internal/trace"
)

// serve-open: tenant-facing serving. An in-process tamsimd with the
// default configuration takes quick-scale run jobs over serveConns
// connections in three equal stages: open-loop Poisson arrivals at
// serveLow, then at serveHigh, then a closed loop of serveConns clients
// that measures capacity. Jobs take about a millisecond, so per-job
// overhead dominates: HTTP, JSON, admission, the compile cache and the
// result cache.

// Open-loop rates in jobs per second, fixed and never recalibrated per
// run. The closed-loop capacity of a 2-core host measured 1,000–2,200
// jobs/s as its neighbours' load varied; these rates stay below half of
// the lowest, so queueing does not amplify that noise.
const (
	serveLow  = 200
	serveHigh = 400
)

// lateLimit is how far behind its schedule the generator may dispatch a
// request before the request counts as late.
const lateLimit = time.Millisecond

type refKey struct {
	program string
	arg     int
	impl    string
}

type serveSession struct {
	d       *daemon
	traffic *ServeTraffic
	stage   time.Duration
	refs    map[refKey]*runRef
	recs    map[refKey]*trace.Recording
}

// setupServe generates the traffic, computes every descriptor's
// reference outcome over the whole grid, and starts the daemon.
func setupServe(ctx context.Context, cfg *Config) (session, error) {
	s := &serveSession{
		stage: time.Duration(cfg.Seconds / 3 * float64(time.Second)),
		refs:  make(map[refKey]*runRef),
		recs:  make(map[refKey]*trace.Recording),
	}
	s.traffic = GenServe(cfg.Seed, s.stage, serveLow, serveHigh)
	grid := Grid()
	for _, pa := range serveArgs {
		for _, arg := range pa.args {
			for _, name := range serveImpls {
				k := refKey{pa.program, arg, name}
				ref, rec, err := reference(k, grid)
				if err != nil {
					return nil, err
				}
				s.refs[k] = ref
				if cfg.Trace {
					s.recs[k] = rec
				}
			}
		}
	}
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	s.d = d
	return s, nil
}

// reference simulates a descriptor the way a run job does — one
// simulation recording one reference stream — and replays the stream
// through every grid geometry. (experiments.RunOne differs for the NIC
// offload backend: it splits the stream between the compute and NIC
// engines, where a run job's document counts both.)
func reference(k refKey, grid []cache.Config) (*runRef, *trace.Recording, error) {
	impl, err := core.ParseImpl(k.impl)
	if err != nil {
		return nil, nil, err
	}
	spec, err := programs.ByName(k.program)
	if err != nil {
		return nil, nil, err
	}
	sim, err := core.Build(impl, spec.Build(k.arg), core.Options{})
	if err != nil {
		return nil, nil, err
	}
	defer sim.Close()
	rec := &trace.Recording{}
	sim.Tracer = rec
	if err := sim.Run(); err != nil {
		return nil, nil, err
	}
	pairs := make([]trace.Pair, len(grid))
	for i, g := range grid {
		if pairs[i], err = trace.NewPair(g); err != nil {
			return nil, nil, err
		}
	}
	rec.ReplayAll(pairs)
	ref := &runRef{
		instructions: sim.M.Instructions(),
		reads:        rec.TotalReads(),
		writes:       rec.TotalWrites(),
		refs:         rec.Len(),
	}
	for _, p := range pairs {
		ref.caches = append(ref.caches, experiments.CacheStats{
			Config: p.I.Config(), IMisses: p.I.Stats().Misses, DMisses: p.D.Stats().Misses, Writebacks: p.D.Stats().Writebacks,
		})
	}
	return ref, rec, nil
}

func (s *serveSession) close() { s.d.close() }

// outcome is one job as the benchmark saw it.
type outcome struct {
	st  *stream
	end time.Time
	err error
}

// do submits job j and checks its document.
func (s *serveSession) do(ctx context.Context, j int) outcome {
	job := s.traffic.Jobs[j]
	req := api.RunRequest{Program: job.Program, Arg: job.Arg, Impl: job.Impl, Penalties: job.Penalties}
	grid := Grid()
	for _, g := range job.Geoms {
		req.Caches = append(req.Caches, api.CacheSpec{SizeKB: grid[g].SizeBytes / 1024, BlockBytes: grid[g].BlockBytes, Assoc: grid[g].Assoc})
	}
	st, err := s.d.submit(ctx, "/v1/runs", req)
	o := outcome{st: st, end: time.Now(), err: err}
	if err == nil {
		var doc api.RunResult
		if o.err = json.Unmarshal(st.terminal().Result, &doc); o.err == nil {
			o.err = CheckRunDoc(&doc, job, s.refs[refKey{job.Program, job.Arg, job.Impl}])
		}
	}
	return o
}

func (s *serveSession) run(ctx context.Context, cfg *Config, tr *Tracer, cal *calibrator) (*measured, error) {
	before, err := s.d.counters(ctx)
	if err != nil {
		return nil, err
	}
	var mb, ma runtime.MemStats
	runtime.ReadMemStats(&mb)
	m := &measured{}
	w := &work{}
	var hits, executed, lateN int
	var late []float64
	op := 0
	for _, stage := range []struct {
		name     string
		arrivals []Arrival
	}{{"low", s.traffic.Low}, {"high", s.traffic.High}} {
		var lat []float64
		meter := cal.meter()
		outs := s.openLoop(ctx, stage.arrivals)
		// Each job is charged an equal share of the stage's CPU time.
		share := meter.ms() / float64(len(outs))
		for i, o := range outs {
			ms, cpu := millis(o.end.Sub(o.due)), share
			m.attempted++
			if o.err != nil {
				fmt.Fprintf(os.Stderr, "serve-open: %s job %d: %v\n", stage.name, stage.arrivals[i].Job, o.err)
				m.failed++
				ms, cpu = math.Inf(1), math.Inf(1)
			} else if e, ok := o.st.event(api.EventSimulated); ok {
				executed++
				if e.CacheHit {
					hits++
				}
			}
			m.cpu = append(m.cpu, cpu)
			late = append(late, millis(o.late))
			if o.late > lateLimit {
				lateN++
			}
			lat = append(lat, ms)
			if tr != nil && op%2 == 1 {
				m.latTraced = append(m.latTraced, ms)
				if o.err == nil {
					s.jobSpans(tr, op, o, s.traffic.Jobs[stage.arrivals[i].Job], w)
				}
			} else {
				m.lat = append(m.lat, ms)
			}
			op++
		}
		m.extra = append(m.extra, named{"job_ms_p50." + stage.name, Median(lat), "ms"})
		if t, ok := TailPercentile(lat); ok {
			m.extra = append(m.extra, named{fmt.Sprintf("job_ms_p%g.%s", t.P, stage.name), t.Value, "ms"})
		}
	}
	// Memory is the daemon's resident set at rest after the fixed-rate
	// stages, which do a fixed amount of work, with garbage collected:
	// its peaks follow the collector's pacing, not the workload. Two
	// collections, because pooled simulation memory survives one.
	runtime.GC()
	debug.FreeOSMemory()
	if m.rss, err = residentMiB(); err != nil {
		return nil, err
	}
	ok, failed, elapsed := s.closedStage(ctx)
	m.attempted += ok + failed
	m.failed += failed
	m.opsPerS = float64(ok) / elapsed.Seconds()
	m.extra = append(m.extra, named{"jobs_per_s.max", m.opsPerS, "jobs/s"})
	if t, ok := TailPercentile(late); ok {
		m.extra = append(m.extra, named{fmt.Sprintf("loadgen.late_ms_p%g", t.P), t.Value, "ms"})
	}
	runtime.ReadMemStats(&ma)
	m.allocMB = float64(ma.TotalAlloc-mb.TotalAlloc) / 1e6
	m.gcs = float64((ma.NumGC - ma.NumForcedGC) - (mb.NumGC - mb.NumForcedGC))
	if tr == nil {
		return m, nil
	}
	after, err := s.d.counters(ctx)
	if err != nil {
		return nil, err
	}
	self := SelfTimes(tr.Spans())
	m.layer = map[string]float64{
		"results.hit_ratio":       hitRatio(before, after, "results"),
		"record.minstr_per_s":     rate(w.get("record.instr"), self, "record"),
		"replay.mref_geoms_per_s": rate(w.get("replay.refgeoms"), self, "replay"),
		"loadgen.late_pct":        100 * float64(lateN) / float64(max(len(late), 1)),
	}
	if executed > 0 {
		m.layer["server.compile_hit_ratio"] = float64(hits) / float64(executed)
	}
	var cu []compileUnit
	var units []probeUnit
	for _, pa := range serveArgs {
		for _, arg := range pa.args {
			for _, name := range serveImpls {
				k := refKey{pa.program, arg, name}
				impl, err := core.ParseImpl(name)
				if err != nil {
					return nil, err
				}
				cu = append(cu, compileUnit{experiments.Workload{Name: k.program, Arg: k.arg}, impl, 1})
				units = append(units, probeUnit{name: fmt.Sprint(k), rec: s.recs[k], geoms: Grid()})
			}
		}
	}
	return m, probe(ctx, m.layer, cu, units)
}

// openOutcome is an open-loop job: when it was due, how late the
// generator dispatched it, and how it went.
type openOutcome struct {
	outcome
	due  time.Time
	late time.Duration
}

// openLoop dispatches arrivals on schedule to serveConns connection
// workers. A job that finds both connections busy waits; its latency
// runs from its due time, so the wait counts.
func (s *serveSession) openLoop(ctx context.Context, arrivals []Arrival) []openOutcome {
	outs := make([]openOutcome, len(arrivals))
	queue := make(chan int, len(arrivals))
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				outs[i].outcome = s.do(ctx, arrivals[i].Job)
			}
		}()
	}
	start := time.Now()
	for i, a := range arrivals {
		due := start.Add(a.At)
		time.Sleep(time.Until(due))
		outs[i].due = due
		outs[i].late = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return outs
}

// closedStage runs serveConns clients back to back for one stage and
// returns the jobs completed and failed and the time they took.
func (s *serveSession) closedStage(ctx context.Context) (ok, failed int, elapsed time.Duration) {
	var next, nOK, nFailed atomic.Int64
	start := time.Now()
	deadline := start.Add(s.stage)
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1)) - 1
				if k >= len(s.traffic.Closed) {
					return
				}
				if o := s.do(ctx, s.traffic.Closed[k]); o.err != nil {
					fmt.Fprintf(os.Stderr, "serve-open: closed-loop job %d: %v\n", s.traffic.Closed[k], o.err)
					nFailed.Add(1)
				} else {
					nOK.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(nOK.Load()), int(nFailed.Load()), time.Since(start)
}

// jobSpans records a traced job's stages from its stream: the wait for a
// connection, admission and queueing, then simulation (started →
// simulated) and replay (→ last geometry) for an executed job or the
// result-cache lookup (→ cached) for a repeat, and the tail to the
// result.
func (s *serveSession) jobSpans(tr *Tracer, op int, o openOutcome, job ServeJob, w *work) {
	root := tr.NewID()
	tr.Add(Span{Name: "loadgen.wait", Parent: root, Trace: op, Start: o.due, End: o.st.sent})
	stageSpans(tr, o.st, op, root, []stage{
		{"record", api.EventSimulated, false},
		{"replay", api.EventGeometry, true},
		{"results", api.EventCached, false},
	})
	tr.Add(Span{Name: "op", ID: root, Trace: op, Start: o.due, End: o.end})
	if e, ok := o.st.event(api.EventSimulated); ok {
		w.add("record.instr", float64(e.Instructions))
		ref := s.refs[refKey{job.Program, job.Arg, job.Impl}]
		w.add("replay.refgeoms", float64(ref.refs*len(job.Geoms)))
	}
}
