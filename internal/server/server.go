package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"jmtam/api"
	"jmtam/internal/obs"
	"jmtam/internal/parallel"
	"jmtam/internal/shard"
	"jmtam/internal/tracestore"
)

const (
	// maxBodyBytes bounds request bodies.
	maxBodyBytes = 1 << 20
	// maxRecordingBytes bounds an uploaded compacted recording; GET
	// responses are unaffected.
	maxRecordingBytes = 256 << 20
	// streamWriteTimeout bounds each write on a job's NDJSON stream so
	// a stalled subscriber cannot pin a handler goroutine forever.
	streamWriteTimeout = 30 * time.Second
)

// Config parameterizes a Server.
type Config struct {
	// Workers bounds the number of concurrently executing jobs
	// (0 = GOMAXPROCS). Jobs past the bound queue until a slot frees.
	Workers int
	// ReplayParallelism bounds the geometry-replay fan-out within one
	// sweep unit (0 = 1): the job pool is the unit of concurrency, so
	// per-unit fan-out defaults to serial. A run job replays while it
	// records, on its own goroutine.
	ReplayParallelism int
	// CacheEntries bounds the compiled-code cache (0 = 32 artifacts).
	CacheEntries int
	// DefaultMaxInstructions is the per-simulation instruction budget
	// applied when a request leaves max_instructions unset
	// (0 = 2e9, the experiments package's default).
	DefaultMaxInstructions uint64
	// JournalPath, when set, enables the write-ahead job journal: every
	// accept/start/terminal transition is an fsynced NDJSON record, and
	// sweeps checkpoint each completed unit, so a restarted daemon
	// re-queues the work that was in flight — resuming sweeps from their
	// last checkpoint — and still serves results for completed job IDs.
	JournalPath string
	// JournalMaxBytes bounds the journal file: past it the journal
	// compacts, folding terminal jobs into single snapshot lines
	// (0 = 64 MiB, negative = unbounded).
	JournalMaxBytes int64
	// JobTimeout is the per-job execution deadline: a job still running
	// past it is killed (counted under watchdog.kills, failed with a
	// deadline_exceeded error) and releases its worker and admission
	// slots. 0 disables the watchdog.
	JobTimeout time.Duration
	// ScrubInterval, with a disk store tier configured, runs a
	// background integrity scrub every interval: blobs failing their
	// content checksum are quarantined and repaired from peers or
	// re-recorded. 0 disables the scrubber (reads still verify).
	ScrubInterval time.Duration
	// ShardWorkers lists remote tamsimd base URLs ("http://host:port").
	// When nonempty, sweep jobs are partitioned into (workload, impl)
	// shards and farmed out through a shard.Coordinator instead of
	// running in-process.
	ShardWorkers []string
	// Shard tunes the coordinator. Its Workers field is taken from
	// ShardWorkers, its Metrics is the server's /metricz registry, and
	// its Local is the server's own unit path at ReplayParallelism, so
	// a shard no worker takes records into this daemon's store.
	Shard shard.Config
	// StoreDir is the content-addressed recording store's disk tier
	// ("" = memory only). Daemons sharing a directory share recordings.
	StoreDir string
	// StoreMemBytes bounds the store's in-memory tier (0 = 256 MiB).
	// Negative means no memory tier: with no StoreDir the store keeps
	// nothing, so every sweep unit records afresh.
	StoreMemBytes int64
	// StorePeers lists peer daemon base URLs to consult (and push to)
	// on a local store miss — typically the coordinator's URL on a
	// shard worker, so a recording made anywhere serves the fleet.
	StorePeers []string
	// Tenants enables API-key tenancy: every request outside the
	// exempt paths needs `Authorization: Bearer <key>`, jobs belong to
	// the resolving tenant (scoping list/status/cancel), and
	// submissions pass the per-tenant admission controller. Nil
	// disables tenancy entirely.
	Tenants *Tenants
	// ResultMemBytes bounds the result cache's memory tier
	// (0 = 64 MiB). Negative disables the result cache: every
	// submission executes fresh and /v1/results returns 404. With
	// StoreDir set the disk tier lives under StoreDir/results.
	ResultMemBytes int64
}

// Server is the tamsimd serving state: job registry, worker pool,
// compiled-code cache and the server-wide metrics registry.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	pool    *parallel.Pool
	jobs    *jobRegistry
	cache   *codeCache
	journal *journal
	coord   *shard.Coordinator
	fleet   *tracestore.Fleet
	results *tracestore.Fleet
	admit   *admission

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup // job lifecycle goroutines (Drain waits on these)
	bg         sync.WaitGroup // background loops (scrubber); exit on baseCtx
	draining   atomic.Bool
	closeOnce  sync.Once
	metrics    *obs.Shared
}

// New returns a ready-to-serve Server. With a journal configured it
// replays the journal first: completed jobs are restored under their
// original IDs with their results, incomplete ones are re-queued.
func New(cfg Config) (*Server, error) {
	if cfg.DefaultMaxInstructions == 0 {
		cfg.DefaultMaxInstructions = 2_000_000_000
	}
	if cfg.ReplayParallelism == 0 {
		cfg.ReplayParallelism = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := obs.NewShared()
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		pool:       parallel.NewPool(cfg.Workers),
		jobs:       newJobRegistry(),
		cache:      newCodeCache(cfg.CacheEntries, m),
		baseCtx:    ctx,
		baseCancel: cancel,
		metrics:    m,
	}
	s.metrics.Count("codecache.hits", 0)
	s.metrics.Count("codecache.misses", 0)
	st, err := tracestore.New(cfg.StoreDir, cfg.StoreMemBytes, m)
	if err != nil {
		cancel()
		return nil, err
	}
	s.fleet = tracestore.NewFleet(st, cfg.StorePeers, nil, m)
	if cfg.ResultMemBytes >= 0 {
		if cfg.ResultMemBytes == 0 {
			cfg.ResultMemBytes = DefaultResultMemBytes
			s.cfg.ResultMemBytes = DefaultResultMemBytes
		}
		rf, err := newResultFleet(s.cfg, m)
		if err != nil {
			cancel()
			return nil, err
		}
		s.results = rf
	}
	if cfg.Tenants != nil {
		s.admit = newAdmission(cfg.Tenants, nil)
	}
	if len(cfg.ShardWorkers) > 0 {
		scfg := cfg.Shard
		scfg.Workers = cfg.ShardWorkers
		scfg.Metrics = m
		scfg.Local = s.localUnit
		s.coord = shard.New(scfg)
	}
	s.routes()
	if cfg.JournalPath != "" {
		j, recovered, skipped, err := openJournal(cfg.JournalPath, cfg.JournalMaxBytes, m)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("journal: %w", err)
		}
		s.journal = j
		s.metrics.Count("journal.errors", 0)
		s.metrics.Count("journal.requeued", 0)
		s.metrics.Count("journal.resumed.units", 0)
		s.metrics.Count("journal.compactions", 0)
		s.metrics.Count("journal.skipped", uint64(skipped))
		for _, jj := range recovered {
			s.recoverJob(jj)
		}
	}
	s.metrics.Count("watchdog.kills", 0)
	if cfg.StoreDir != "" && cfg.ScrubInterval > 0 {
		s.bg.Add(1)
		go s.scrubLoop(cfg.ScrubInterval)
	}
	return s, nil
}

// Close cancels every outstanding job and waits for the workers and
// background loops to drain, then closes the journal. Canceled jobs
// stay incomplete in the journal — with their unit checkpoints — so a
// restart resumes them rather than reporting them canceled.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.baseCancel()
		s.wg.Wait()
		s.bg.Wait()
		if s.journal != nil {
			s.journal.close()
		}
	})
}

// BeginDrain flips the server to draining: /readyz answers 503, new
// submissions are refused with a retryable unavailable envelope, and
// running jobs continue (checkpointing as they go). Idempotent.
func (s *Server) BeginDrain() {
	if !s.draining.Swap(true) {
		s.metrics.Count("drain.begun", 1)
	}
}

// Drain is the graceful-shutdown path: stop accepting, let running
// jobs finish, then Close. If ctx expires first the remaining jobs are
// canceled mid-flight — their journaled unit checkpoints make the next
// start resume instead of re-running them. Either way every job
// goroutine has exited when Drain returns.
func (s *Server) Drain(ctx context.Context) {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.metrics.Count("drain.timeouts", 1)
	}
	s.Close()
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// scrubLoop periodically verifies every disk-tier blob, repairing
// quarantined keys from peers (keys no peer holds are abandoned; the
// next demand re-records them).
func (s *Server) scrubLoop(interval time.Duration) {
	defer s.bg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			s.scrubOnce()
		}
	}
}

// scrubOnce runs one scrub + repair pass (also the test seam).
func (s *Server) scrubOnce() {
	bad, err := s.fleet.Store().Scrub()
	if err != nil {
		s.metrics.Count("store.scrub.errors", 1)
		return
	}
	if len(bad) > 0 {
		s.fleet.Repair(s.baseCtx, bad)
	}
}

// Handler returns the server's HTTP handler: request counting, then
// (with tenancy enabled) API-key auth, then the route mux.
func (s *Server) Handler() http.Handler {
	var h http.Handler = s.mux
	if s.cfg.Tenants != nil {
		h = s.withAuth(h)
	}
	inner := h
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Count("http.requests", 1)
		inner.ServeHTTP(w, r)
	})
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/runs", s.handleRunSubmit)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	s.mux.HandleFunc("GET /v1/runs", s.handleList)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleList)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/recordings/{key}", s.blobGet(s.fleet, "recording", "application/octet-stream"))
	s.mux.HandleFunc("PUT /v1/recordings/{key}", s.blobPut(s.fleet, "recording"))
	s.mux.HandleFunc("GET /v1/results/{key}", s.blobGet(s.results, "result", "application/json"))
	s.mux.HandleFunc("PUT /v1/results/{key}", s.blobPut(s.results, "result"))
	s.mux.HandleFunc("GET /metricz", s.handleMetricz)
	// /healthz is liveness — the process is up and serving. /readyz is
	// readiness — route new work here: it answers 503 while draining,
	// when journal appends are failing, or when the store has corrupt
	// blobs awaiting repair. The shard coordinator probes /readyz, so a
	// draining worker sheds shards without being booked as broken.
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if reason := s.notReady(); reason != "" {
		writeError(w, http.StatusServiceUnavailable, api.CodeUnavailable, reason)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

// notReady returns why the server should not receive new work, or "".
func (s *Server) notReady() string {
	if s.draining.Load() {
		return "draining"
	}
	if s.journal != nil && s.journal.degraded() {
		return "journal: appends are failing"
	}
	if n := s.fleet.Store().Quarantined(); n > 0 {
		return fmt.Sprintf("store: %d corrupt blob(s) quarantined awaiting repair", n)
	}
	return ""
}

// handleMetricz samples the levels that are read, not counted, then
// serves the registry.
func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.metrics.GaugeSet("codecache.entries", int64(s.cache.len()))
	s.metrics.GaugeSet("pool.slots", int64(s.pool.Cap()))
	s.metrics.GaugeSet("pool.in_use", int64(s.pool.InUse()))
	// The header is already out; a write error has no one to go to.
	_ = s.metrics.WriteJSON(w)
}

// --- submission -------------------------------------------------------------

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// writeError emits the structured error envelope every non-2xx
// response carries: {"error": {"code", "message", "retryable"}}.
func writeError(w http.ResponseWriter, status int, code api.ErrorCode, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(api.ErrorEnvelope{Error: api.NewError(code, msg)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// refuseDraining rejects a submission while the server drains: 503
// with a retryable envelope, so clients (and the shard coordinator)
// take the work elsewhere.
func (s *Server) refuseDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	s.metrics.Count("drain.rejected", 1)
	writeError(w, http.StatusServiceUnavailable, api.CodeUnavailable, "draining: not accepting new jobs")
	return true
}

func (s *Server) handleRunSubmit(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	var req RunRequest
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	if err := req.Normalize(s.cfg.DefaultMaxInstructions); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	release, ok := s.admitSubmit(w, r)
	if !ok {
		return
	}
	job := s.submit("run", tenantOf(r), release, &req, func(ctx context.Context, j *Job) (json.RawMessage, error) {
		return s.executeRun(ctx, j, &req)
	})
	s.respondToSubmit(w, r, job)
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	var req SweepRequest
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	if err := req.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	release, ok := s.admitSubmit(w, r)
	if !ok {
		return
	}
	job := s.submit("sweep", tenantOf(r), release, &req, func(ctx context.Context, j *Job) (json.RawMessage, error) {
		return s.executeSweep(ctx, j, &req, nil)
	})
	s.respondToSubmit(w, r, job)
}

// admitSubmit passes a submission through the tenant's admission
// controller. A refusal answers 429 with Retry-After and the
// quota_exhausted envelope and returns ok=false; with tenancy disabled
// it admits unconditionally with a nil release.
func (s *Server) admitSubmit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if s.admit == nil {
		return nil, true
	}
	tenant := tenantOf(r)
	release, rej := s.admit.acquire(tenant)
	if rej != nil {
		s.metrics.Count("tenant."+tenant+".rejected", 1)
		s.metrics.Count("jobs.rejected", 1)
		w.Header().Set("Retry-After", strconv.Itoa(int(rej.retryAfter/time.Second)))
		writeError(w, http.StatusTooManyRequests, api.CodeQuotaExhausted, rej.msg)
		return nil, false
	}
	s.metrics.Count("tenant."+tenant+".admitted", 1)
	s.tenantGauge(tenant)
	return release, true
}

// tenantGauge refreshes the tenant's in-flight gauge after an
// admission or release.
func (s *Server) tenantGauge(tenant string) {
	if s.admit == nil || tenant == "" {
		return
	}
	s.metrics.GaugeSet("tenant."+tenant+".running", int64(s.admit.runningFor(tenant)))
}

// submit registers a job, journals its acceptance (with the normalized
// request, so a restarted daemon can re-run it) and launches its
// lifecycle goroutine. release (the admission slot) is run when the
// job reaches a terminal state.
func (s *Server) submit(kind, tenant string, release func(), req any, exec func(ctx context.Context, j *Job) (json.RawMessage, error)) *Job {
	job := s.jobs.add(kind, tenant)
	job.setRelease(release)
	if s.journal != nil {
		raw, err := json.Marshal(req)
		if err == nil {
			s.journalAppend(journalRecord{Op: "accept", ID: job.ID, Kind: kind, Tenant: tenant, Req: raw})
		} else {
			s.metrics.Count("journal.errors", 1)
		}
	}
	s.launch(job, exec)
	return job
}

// launch runs a job's lifecycle: acquire a pool slot (counted as queue
// time), execute, and publish the terminal event + state.
func (s *Server) launch(job *Job, exec func(ctx context.Context, j *Job) (json.RawMessage, error)) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	job.setCancel(cancel)
	s.metrics.Count("jobs.submitted", 1)
	s.metrics.GaugeAdd("jobs.queued", 1)
	job.emit(api.Accepted(job.ID, job.Kind))

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()
		start := time.Now()
		err := s.pool.Acquire(ctx)
		s.metrics.GaugeAdd("jobs.queued", -1)
		if err != nil {
			s.finishJob(job, nil, err, start)
			return
		}
		defer s.pool.Release()
		s.metrics.GaugeAdd("jobs.running", 1)
		s.metrics.Count("jobs.started", 1)
		job.setRunning()
		s.journalAppend(journalRecord{Op: "start", ID: job.ID})
		job.emit(api.Started(job.ID, time.Since(start).Milliseconds()))
		// The watchdog deadline starts when the job gets its slot, not
		// when it was queued: queue time is the server's fault, not the
		// job's.
		runCtx := ctx
		if s.cfg.JobTimeout > 0 {
			var wcancel context.CancelFunc
			runCtx, wcancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
			defer wcancel()
		}
		result, err := exec(runCtx, job)
		if err != nil && s.cfg.JobTimeout > 0 &&
			runCtx.Err() == context.DeadlineExceeded && errors.Is(err, context.DeadlineExceeded) {
			// The watchdog fired: a wedged job must not pin its admission
			// slot forever. Fail durably with the deadline_exceeded
			// envelope code so retriers know waiting longer won't help.
			s.metrics.Count("watchdog.kills", 1)
			err = fmt.Errorf("%s: job exceeded -job-timeout %s", api.CodeDeadlineExceeded, s.cfg.JobTimeout)
		}
		s.metrics.GaugeAdd("jobs.running", -1)
		s.finishJob(job, result, err, start)
	}()
}

// finishJob journals the terminal transition, records its counters and
// latency, releases the tenant's admission slot, then emits the
// terminal NDJSON line and moves the job to its terminal state, which
// ends every stream. Everything lands before that line: a client that
// has read it can rely on the outcome surviving a restart, read it on
// /metricz and submit again at once.
func (s *Server) finishJob(job *Job, result json.RawMessage, err error, start time.Time) {
	ms := uint64(time.Since(start).Milliseconds())
	var terminal any
	state, msg := StateDone, ""
	switch {
	case err == nil:
		s.journalAppend(journalRecord{Op: "done", ID: job.ID, Result: result})
		terminal = api.Result(job.ID, result)
		s.metrics.Count("jobs.finished", 1)
	case errors.Is(err, context.Canceled):
		// A client cancel is a durable outcome; a daemon-shutdown cancel
		// is not — the job stays incomplete in the journal so a restart
		// re-queues it instead of reporting it canceled.
		if s.baseCtx.Err() == nil {
			s.journalAppend(journalRecord{Op: "cancel", ID: job.ID, Error: err.Error()})
		}
		terminal = api.Failure(api.EventCanceled, job.ID, err.Error())
		state, result, msg = StateCanceled, nil, err.Error()
		s.metrics.Count("jobs.canceled", 1)
	default:
		s.journalAppend(journalRecord{Op: "fail", ID: job.ID, Error: err.Error()})
		terminal = api.Failure(api.EventError, job.ID, err.Error())
		state, result, msg = StateFailed, nil, err.Error()
		s.metrics.Count("jobs.failed", 1)
	}
	s.metrics.Observe("job.latency.ms."+job.Kind, ms)
	if release := job.takeRelease(); release != nil {
		release()
		s.tenantGauge(job.Tenant)
	}
	job.emit(terminal)
	job.finish(state, result, msg)
}

// journalAppend writes one journal record, if journaling is on. Append
// failures are counted and otherwise ignored: journaling degrades to
// best-effort rather than taking the serving path down.
func (s *Server) journalAppend(rec journalRecord) {
	if s.journal == nil {
		return
	}
	if err := s.journal.append(rec); err != nil {
		s.metrics.Count("journal.errors", 1)
	}
}

// journalUnit checkpoints one completed sweep unit (batched fsync; see
// journal.appendUnit) and keeps the journal-size gauge current.
func (s *Server) journalUnit(jobID string, idx int, result json.RawMessage) {
	if s.journal == nil {
		return
	}
	if err := s.journal.appendUnit(journalRecord{Op: "unit", ID: jobID, Unit: &unitCheckpoint{Idx: idx, Result: result}}); err != nil {
		s.metrics.Count("journal.errors", 1)
		return
	}
	s.metrics.GaugeSet("journal.bytes", s.journal.bytes())
}

// recoverJob re-materializes one journal-replayed job: terminal jobs
// come back with their original ID, stream and result; incomplete ones
// (accepted or cut off mid-run by a crash) re-queue under their
// original ID, so a client holding a pre-restart job URL eventually
// gets the real result.
func (s *Server) recoverJob(jj *journalJob) {
	job := s.jobs.restore(jj.ID, jj.Kind, jj.Tenant)
	if jj.State.Terminal() {
		job.emit(api.Accepted(job.ID, job.Kind))
		switch jj.State {
		case StateDone:
			job.emit(api.Result(job.ID, jj.Result))
			job.finish(StateDone, jj.Result, "")
		case StateCanceled:
			job.emit(api.Failure(api.EventCanceled, job.ID, jj.Error))
			job.finish(StateCanceled, nil, jj.Error)
		default:
			job.emit(api.Failure(api.EventError, job.ID, jj.Error))
			job.finish(StateFailed, nil, jj.Error)
		}
		return
	}
	exec, err := s.execFor(jj)
	if err != nil {
		// The journaled request no longer parses (version skew, torn
		// record): fail the job durably rather than dropping it.
		s.journalAppend(journalRecord{Op: "fail", ID: jj.ID, Error: err.Error()})
		job.emit(api.Accepted(job.ID, job.Kind))
		job.emit(api.Failure(api.EventError, job.ID, err.Error()))
		job.finish(StateFailed, nil, err.Error())
		return
	}
	// The tenant was admitted for this work before the restart; re-take
	// its slot unconditionally rather than re-running quota checks.
	if s.admit != nil && jj.Tenant != "" {
		job.setRelease(s.admit.force(jj.Tenant))
		s.tenantGauge(jj.Tenant)
	}
	s.metrics.Count("journal.requeued", 1)
	s.launch(job, exec)
}

// execFor rebuilds the execution closure for a journaled job. Sweep
// jobs carry their unit checkpoints along: valid ones are trusted as
// completed grid positions and only the rest re-run.
func (s *Server) execFor(jj *journalJob) (func(ctx context.Context, j *Job) (json.RawMessage, error), error) {
	switch jj.Kind {
	case "run":
		req := new(RunRequest)
		if err := json.Unmarshal(jj.Req, req); err != nil {
			return nil, err
		}
		if err := req.Normalize(s.cfg.DefaultMaxInstructions); err != nil {
			return nil, err
		}
		return func(ctx context.Context, j *Job) (json.RawMessage, error) {
			return s.executeRun(ctx, j, req)
		}, nil
	case "sweep":
		req := new(SweepRequest)
		if err := json.Unmarshal(jj.Req, req); err != nil {
			return nil, err
		}
		if err := req.Normalize(); err != nil {
			return nil, err
		}
		resume := s.decodeCheckpoints(req, jj.Units)
		if n := len(resume); n > 0 {
			s.metrics.Count("journal.resumed.units", uint64(n))
		}
		return func(ctx context.Context, j *Job) (json.RawMessage, error) {
			return s.executeSweep(ctx, j, req, resume)
		}, nil
	}
	return nil, fmt.Errorf("journal: unknown job kind %q", jj.Kind)
}

// respondToSubmit either streams the job's NDJSON event stream on the
// open connection (the default; closing the connection cancels the
// job) or, with ?detach=1, returns 202 with the job document
// immediately.
func (s *Server) respondToSubmit(w http.ResponseWriter, r *http.Request, job *Job) {
	if r.URL.Query().Get("detach") == "1" {
		writeJSON(w, http.StatusAccepted, job.Status())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// A submitter that goes away takes its job with it; detached jobs
	// have no watcher and run to completion.
	stop := context.AfterFunc(r.Context(), job.Cancel)
	defer stop()
	job.streamTo(w, streamWriteTimeout)
}

// --- status, streaming, cancellation ---------------------------------------

// handleList serves GET /v1/runs and GET /v1/sweeps identically: all
// of the caller's jobs, runs and sweeps alike, oldest first; ?kind=run
// or ?kind=sweep filters. With tenancy enabled a tenant sees exactly
// its own jobs.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	kind := r.URL.Query().Get("kind")
	if kind != "" && kind != "run" && kind != "sweep" {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Sprintf("unknown kind %q (want run|sweep)", kind))
		return
	}
	jobs := s.jobs.list()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		if !s.visibleTo(r, j) || (kind != "" && j.Kind != kind) {
			continue
		}
		st := j.Status()
		st.Result = nil // list view stays compact
		out = append(out, st)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job := s.jobs.get(r.PathValue("id"))
	if job == nil || !s.visibleTo(r, job) {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "no such job")
		return
	}
	if r.URL.Query().Get("stream") == "1" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		job.streamTo(w, streamWriteTimeout)
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job := s.jobs.get(r.PathValue("id"))
	if job == nil || !s.visibleTo(r, job) {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "no such job")
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusAccepted, job.Status())
}
