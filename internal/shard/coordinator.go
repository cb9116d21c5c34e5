package shard

import (
	"context"
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
	"jmtam/internal/rng"
)

// Event is one coordinator lifecycle notification, for progress
// streaming and tests. Events never carry result data: ordering under
// concurrency is nondeterministic and must not affect output.
type Event struct {
	Type    string // "register", "lease", "retry", "requeue", "hedge", "breaker-open", "local", "done"
	Shard   int    // unit index, -1 for worker-level events
	Worker  string // worker base URL, "" for local execution
	Attempt int
	Err     string
}

// Config parameterizes a Coordinator.
type Config struct {
	// Workers lists worker base URLs ("http://host:port"). Empty means
	// every shard runs through Local.
	Workers []string
	// Transport performs worker round trips (nil = http.DefaultTransport).
	// The chaos harness injects faults here.
	Transport http.RoundTripper
	// LeaseTimeout bounds one shard attempt: a worker that has not
	// delivered a terminal stream line within it loses the lease and the
	// shard re-queues (0 = 2m).
	LeaseTimeout time.Duration
	// MaxAttempts bounds remote attempts per shard before falling back
	// to Local (0 = 4).
	MaxAttempts int
	// BaseBackoff is the first retry delay; it doubles per attempt up to
	// MaxBackoff, with full jitter drawn from Seed (0 = 50ms / 2s).
	BaseBackoff, MaxBackoff time.Duration
	// HedgeAfter launches one bounded duplicate attempt on another
	// worker when the primary has not finished within it (0 = no
	// hedging).
	HedgeAfter time.Duration
	// Seed drives backoff jitter. Jitter affects timing only, never
	// results.
	Seed uint64
	// Local runs a shard in-process once remote attempts are exhausted
	// or no worker is admissible; it must return the row a worker would.
	// Its errors are permanent unless the context has ended. Nil makes
	// such a shard fail.
	Local func(ctx context.Context, spec *Spec, u Unit) (api.SweepRunSummary, error)
	// Metrics and OnEvent observe the coordinator; both may be nil.
	Metrics *obs.Shared
	OnEvent func(Event)
}

// worker is the coordinator's view of one remote tamsimd.
type worker struct {
	url     string
	idx     int
	breaker breaker
}

// Coordinator farms sweep shards out to workers with leases, retries,
// backoff, hedging, circuit breaking and local fallback. A Coordinator
// is safe for concurrent use and reusable across runs.
type Coordinator struct {
	cfg     Config
	workers []*worker
	client  *http.Client
	rr      atomic.Uint64 // round-robin cursor

	mu  sync.Mutex // guards src
	src *rng.Source
}

// New returns a Coordinator over cfg.Workers.
func New(cfg Config) *Coordinator {
	if cfg.LeaseTimeout == 0 {
		cfg.LeaseTimeout = 2 * time.Minute
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.BaseBackoff == 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	c := &Coordinator{
		cfg: cfg,
		client: &http.Client{
			Transport: cfg.Transport,
			// Per-attempt contexts carry the lease deadline; the client
			// itself must not add a second, conflicting timeout.
		},
		src: rng.New(cfg.Seed),
	}
	for i, u := range cfg.Workers {
		for len(u) > 0 && u[len(u)-1] == '/' {
			u = u[:len(u)-1]
		}
		c.workers = append(c.workers, &worker{url: u, idx: i})
	}
	// Pre-register the failure-path counters so a clean run still
	// reports them (as zero) on /metricz.
	for _, name := range []string{
		"shard.shards", "shard.retries", "shard.requeues", "shard.hedges",
		"shard.breaker.opens", "shard.local", "shard.remote",
	} {
		c.cfg.Metrics.Count(name, 0)
	}
	return c
}

// --- observability helpers --------------------------------------------------

func (c *Coordinator) event(e Event) {
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(e)
	}
}

func (c *Coordinator) publishWorkerStates(now time.Time) {
	for _, w := range c.workers {
		c.cfg.Metrics.GaugeSet("worker.state."+strconv.Itoa(w.idx), w.breaker.state(now))
	}
}

// --- worker selection -------------------------------------------------------

// pick returns the next admissible worker in round-robin order, skipping
// exclude and any worker whose breaker is open; nil when none qualifies.
func (c *Coordinator) pick(exclude *worker) *worker {
	n := len(c.workers)
	if n == 0 {
		return nil
	}
	now := time.Now()
	start := int(c.rr.Add(1) - 1)
	for i := 0; i < n; i++ {
		w := c.workers[(start+i)%n]
		if w == exclude {
			continue
		}
		if w.breaker.allow(now) {
			return w
		}
	}
	return nil
}

// register probes every worker's /readyz, seeding breaker state and the
// worker.state gauges before the first shard is leased.
func (c *Coordinator) register(ctx context.Context) {
	now := time.Now()
	for _, w := range c.workers {
		err := c.probe(ctx, w)
		if err != nil {
			// Quarantine immediately: the first shards should not burn
			// attempts on a worker that failed its registration probe.
			for i := 0; i < breakerThreshold; i++ {
				w.breaker.fail(now)
			}
			c.cfg.Metrics.Count("shard.breaker.opens", 1)
		} else {
			w.breaker.ok()
		}
		c.event(Event{Type: "register", Shard: -1, Worker: w.url, Err: errString(err)})
	}
	c.publishWorkerStates(time.Now())
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// --- run --------------------------------------------------------------------

// Run distributes the spec's grid and returns one row per unit,
// position-indexed in Spec.Units order. The first permanent error (or
// context cancellation) aborts the run.
func (c *Coordinator) Run(ctx context.Context, spec *Spec) ([]api.SweepRunSummary, error) {
	return c.RunSubset(ctx, spec, nil, nil, nil)
}

// RunSubset is Run restricted to the units at the given grid indices
// (nil = every unit) — the resume path after a restart runs only the
// positions with no journaled checkpoint. The returned slice always
// spans the full grid (len(spec.Units())); positions outside idxs are
// left zero for the caller to fill. onEvent (may be nil) observes the
// run's events in addition to the configured OnEvent; event order
// under concurrency is nondeterministic and never affects results.
// onUnit (may be nil) observes each completed unit with its grid index
// as it lands — the server's checkpoint hook. Both may be called
// concurrently.
func (c *Coordinator) RunSubset(ctx context.Context, spec *Spec, idxs []int, onEvent func(Event), onUnit func(idx int, r api.SweepRunSummary)) ([]api.SweepRunSummary, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	emit := c.event
	if onEvent != nil {
		emit = func(e Event) {
			c.event(e)
			onEvent(e)
		}
	}
	units := spec.Units()
	if idxs == nil {
		idxs = make([]int, len(units))
		for i := range idxs {
			idxs[i] = i
		}
	}
	for _, i := range idxs {
		if i < 0 || i >= len(units) {
			return nil, fmt.Errorf("shard: unit index %d out of range [0,%d)", i, len(units))
		}
	}
	c.cfg.Metrics.Count("shard.shards", uint64(len(idxs)))
	results := make([]api.SweepRunSummary, len(units))
	if len(idxs) == 0 {
		return results, nil
	}
	if len(c.workers) > 0 {
		c.register(ctx)
	}
	inflight := len(c.workers)
	if inflight == 0 {
		inflight = 1
	}
	err := parallel.ForEachContext(ctx, inflight, len(idxs), func(k int) error {
		i := idxs[k]
		r, err := c.runShard(ctx, spec, units[i], i, emit)
		if err != nil {
			return err
		}
		results[i] = r
		if onUnit != nil {
			onUnit(i, r)
		}
		return nil
	})
	c.publishWorkerStates(time.Now())
	if err != nil {
		return nil, err
	}
	return results, nil
}

// runShard drives one shard to completion: lease → attempt (hedged) →
// classify failure → backoff → re-lease, degrading to Local once
// remote attempts are exhausted or no worker is admissible.
func (c *Coordinator) runShard(ctx context.Context, spec *Spec, u Unit, idx int, emit func(Event)) (api.SweepRunSummary, error) {
	backoff := c.cfg.BaseBackoff
	var lastErr error
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return api.SweepRunSummary{}, err
		}
		w := c.pick(nil)
		if w == nil {
			break // no admissible worker: degrade to local
		}
		emit(Event{Type: "lease", Shard: idx, Worker: w.url, Attempt: attempt})
		start := time.Now()
		res, err := c.attemptHedged(ctx, w, spec, u, idx, attempt, emit)
		c.cfg.Metrics.Observe("shard.attempt.ms", uint64(time.Since(start).Milliseconds()))
		if err == nil {
			c.cfg.Metrics.Count("shard.remote", 1)
			emit(Event{Type: "done", Shard: idx, Worker: w.url, Attempt: attempt})
			return res, nil
		}
		if !transient(err) {
			return api.SweepRunSummary{}, err
		}
		lastErr = err
		if leaseExpired(err) {
			c.cfg.Metrics.Count("shard.requeues", 1)
			emit(Event{Type: "requeue", Shard: idx, Worker: w.url, Attempt: attempt, Err: err.Error()})
		} else {
			c.cfg.Metrics.Count("shard.retries", 1)
			emit(Event{Type: "retry", Shard: idx, Worker: w.url, Attempt: attempt, Err: err.Error()})
		}
		if err := sleepCtx(ctx, c.jitter(backoff)); err != nil {
			return api.SweepRunSummary{}, err
		}
		if backoff *= 2; backoff > c.cfg.MaxBackoff {
			backoff = c.cfg.MaxBackoff
		}
	}
	if c.cfg.Local == nil {
		if lastErr == nil {
			lastErr = fmt.Errorf("no admissible worker")
		}
		return api.SweepRunSummary{}, fmt.Errorf("shard %d (%s/%s): remote attempts exhausted: %w",
			idx, u.Workload.Program, u.Impl, lastErr)
	}
	c.cfg.Metrics.Count("shard.local", 1)
	emit(Event{Type: "local", Shard: idx, Err: errString(lastErr)})
	r, err := c.cfg.Local(ctx, spec, u)
	if err != nil {
		if ctx.Err() != nil {
			return api.SweepRunSummary{}, ctx.Err()
		}
		return api.SweepRunSummary{}, &PermanentError{Err: err}
	}
	return r, nil
}

// attemptHedged runs one leased attempt, optionally racing a single
// bounded hedge on a different worker when the primary straggles past
// HedgeAfter. The first success wins and cancels the other attempt; a
// permanent error from either side aborts.
func (c *Coordinator) attemptHedged(ctx context.Context, primary *worker, spec *Spec, u Unit, idx, attempt int, emit func(Event)) (api.SweepRunSummary, error) {
	if c.cfg.HedgeAfter <= 0 {
		return c.leasedAttempt(ctx, primary, spec, u, emit)
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		res api.SweepRunSummary
		err error
	}
	ch := make(chan outcome, 2)
	launch := func(w *worker) {
		go func() {
			res, err := c.leasedAttempt(actx, w, spec, u, emit)
			ch <- outcome{res, err}
		}()
	}
	launch(primary)
	inflight := 1
	hedged := false
	timer := time.NewTimer(c.cfg.HedgeAfter)
	defer timer.Stop()
	var firstErr error
	for {
		select {
		case o := <-ch:
			inflight--
			if o.err == nil {
				return o.res, nil
			}
			var pe *PermanentError
			if errors.As(o.err, &pe) {
				return api.SweepRunSummary{}, o.err
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if inflight == 0 {
				return api.SweepRunSummary{}, firstErr
			}
		case <-timer.C:
			if hedged {
				continue
			}
			hedged = true
			if sec := c.pick(primary); sec != nil {
				c.cfg.Metrics.Count("shard.hedges", 1)
				emit(Event{Type: "hedge", Shard: idx, Worker: sec.url, Attempt: attempt})
				launch(sec)
				inflight++
			}
		case <-ctx.Done():
			return api.SweepRunSummary{}, ctx.Err()
		}
	}
}

// leasedAttempt wraps one worker attempt in its lease deadline and
// keeps the worker's breaker and state gauge current.
func (c *Coordinator) leasedAttempt(ctx context.Context, w *worker, spec *Spec, u Unit, emit func(Event)) (api.SweepRunSummary, error) {
	lctx, cancel := context.WithTimeout(ctx, c.cfg.LeaseTimeout)
	defer cancel()
	res, err := c.attempt(lctx, w, spec, u)
	if err == nil {
		w.breaker.ok()
		c.cfg.Metrics.GaugeSet("worker.state."+strconv.Itoa(w.idx), BreakerClosed)
		return res, nil
	}
	// A hedge race loser cancelled through the parent context is not the
	// worker's fault; everything else (including a lease expiry) is.
	if ctx.Err() == nil || errors.Is(ctx.Err(), context.DeadlineExceeded) {
		now := time.Now()
		if w.breaker.fail(now) {
			c.cfg.Metrics.Count("shard.breaker.opens", 1)
			emit(Event{Type: "breaker-open", Shard: -1, Worker: w.url, Err: err.Error()})
		}
		c.cfg.Metrics.GaugeSet("worker.state."+strconv.Itoa(w.idx), w.breaker.state(now))
	}
	return api.SweepRunSummary{}, err
}

// jitter draws a full-jitter delay in [d/2, d] from the seeded source.
func (c *Coordinator) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	c.mu.Lock()
	f := c.src.Float64()
	c.mu.Unlock()
	return d/2 + time.Duration(f*float64(d/2))
}
