package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"jmtam/api"
)

// PermanentError marks a failure retries cannot fix: a worker rejected
// the request as malformed, or the simulation itself failed — outcomes
// that would be identical on every worker and locally.
type PermanentError struct {
	Err error
}

func (e *PermanentError) Error() string { return "shard: permanent: " + e.Err.Error() }
func (e *PermanentError) Unwrap() error { return e.Err }

func permanent(format string, args ...any) error {
	return &PermanentError{Err: fmt.Errorf(format, args...)}
}

// attempt leases one shard to a worker: POST the one-unit sweep, follow
// the NDJSON stream to its terminal line, and parse the unit's row.
// The context carries the lease deadline; expiry surfaces as
// context.DeadlineExceeded, which the caller books as a re-queue.
func (c *Coordinator) attempt(ctx context.Context, w *worker, spec *Spec, u Unit) (api.SweepRunSummary, error) {
	wreq := api.SweepRequest{
		Workloads:  []Workload{u.Workload},
		SizesKB:    spec.SizesKB,
		Assocs:     spec.Assocs,
		BlockBytes: spec.BlockBytes,
		Penalties:  spec.Penalties,
		Impls:      []string{u.Impl},
		Detail:     true,
	}
	body, err := json.Marshal(wreq)
	if err != nil {
		return api.SweepRunSummary{}, &PermanentError{Err: err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return api.SweepRunSummary{}, &PermanentError{Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return api.SweepRunSummary{}, fmt.Errorf("worker %s: %w", w.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		// Branch on the structured envelope, not the status class: a 429
		// (quota) or an envelope marked retryable is worth another worker
		// or another attempt; bad_request/not_found would fail everywhere
		// identically.
		apiErr := api.DecodeError(resp.StatusCode, body)
		if apiErr.Retryable {
			return api.SweepRunSummary{}, fmt.Errorf("worker %s: %w", w.url, apiErr)
		}
		return api.SweepRunSummary{}, permanent("worker %s: %s", w.url, apiErr.Error())
	}

	last, err := api.ReadStream(resp.Body, nil)
	if err != nil {
		return api.SweepRunSummary{}, fmt.Errorf("worker %s: stream: %w", w.url, err)
	}
	switch last.Type {
	case api.EventResult:
		return parseRow(last.Result, spec, u, w.url)
	case api.EventError:
		// A watchdog kill (-job-timeout on the worker) is the one stream
		// failure worth retrying elsewhere: the job may have wedged on
		// that daemon's state, not deterministically.
		if strings.HasPrefix(last.Error, string(api.CodeDeadlineExceeded)) {
			return api.SweepRunSummary{}, fmt.Errorf("worker %s: job killed by watchdog: %s", w.url, last.Error)
		}
		// Deterministic simulation failure: every worker (and a local
		// run) would fail the same way.
		return api.SweepRunSummary{}, permanent("worker %s: job failed: %s", w.url, last.Error)
	case api.EventCanceled:
		// The worker is shutting down; another worker can run the shard.
		return api.SweepRunSummary{}, fmt.Errorf("worker %s: job canceled mid-shard", w.url)
	default:
		// Stream ended without a terminal line: the worker died or the
		// connection was severed mid-stream.
		return api.SweepRunSummary{}, fmt.Errorf("worker %s: stream ended without a terminal event (last %q)", w.url, last.Type)
	}
}

// parseRow validates one worker sweep document against the shard
// it was leased for and returns its one row.
func parseRow(raw json.RawMessage, spec *Spec, u Unit, url string) (api.SweepRunSummary, error) {
	var res api.SweepResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return api.SweepRunSummary{}, fmt.Errorf("worker %s: bad result document: %w", url, err)
	}
	if len(res.Runs) != 1 {
		return api.SweepRunSummary{}, fmt.Errorf("worker %s: %d runs in shard result, want 1", url, len(res.Runs))
	}
	if err := spec.CheckRow(u, res.Runs[0]); err != nil {
		return api.SweepRunSummary{}, fmt.Errorf("worker %s: shard result: %w", url, err)
	}
	return res.Runs[0], nil
}

// probeTimeout bounds a /readyz registration probe.
const probeTimeout = 2 * time.Second

// probe checks a worker's readiness, bounding the wait. It asks
// /readyz, not /healthz: a live-but-draining worker (503) must shed
// new shards exactly like an unreachable one — the coordinator leases
// elsewhere and the drain completes; this is shedding, not breakage.
func (c *Coordinator) probe(ctx context.Context, w *worker) error {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, w.url+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("worker %s: readyz %s", w.url, resp.Status)
	}
	return nil
}

// transient reports whether err is worth retrying on another worker.
func transient(err error) bool {
	var pe *PermanentError
	return err != nil && !errors.As(err, &pe) && !errors.Is(err, context.Canceled)
}

// leaseExpired reports whether an attempt failed because its lease
// deadline passed (as opposed to an immediate transport error).
func leaseExpired(err error) bool {
	return errors.Is(err, context.DeadlineExceeded)
}

// sleepCtx sleeps for d unless the context ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
