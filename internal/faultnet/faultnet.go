// Package faultnet is a deterministic fault-injection layer for the
// distributed sweep topology: an http.RoundTripper wrapper that injects
// connection drops, latency spikes, synthetic 5xx responses and
// mid-stream disconnects on a seeded schedule, and a seeded disk
// corruptor that flips bits in stored blobs to drill the store's
// integrity scrub.
//
// Fault decisions are drawn from an internal/rng xorshift source, so a
// given seed produces the same fault sequence on every run: CI can
// exercise the coordinator's retry, re-queue and circuit-breaker paths
// reproducibly. Injection never alters payload bytes — a request either
// fails outright or completes untouched — so any sweep that completes
// under faults must still be byte-identical to a fault-free run.
package faultnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"jmtam/internal/rng"
)

// ErrInjected marks every error produced by the fault layer, so tests
// and retry classifiers can tell injected faults from real ones.
var ErrInjected = errors.New("faultnet: injected fault")

// Plan describes the per-request fault probabilities. Each request
// draws, in a fixed order, one decision per fault class; probabilities
// are independent. The zero Plan injects nothing.
type Plan struct {
	// Seed selects the deterministic fault schedule.
	Seed uint64
	// Drop is the probability the request fails before reaching the
	// worker (connection refused / reset).
	Drop float64
	// Err5xx is the probability the request is answered with a
	// synthesized 503 without reaching the worker.
	Err5xx float64
	// Disconnect is the probability the response stream is severed
	// partway through the body.
	Disconnect float64
	// SpikeProb is the probability a latency spike of Spike is inserted
	// before the request is forwarded.
	SpikeProb float64
	// Spike is the injected extra latency.
	Spike time.Duration
}

// Transport wraps a base http.RoundTripper with seeded fault
// injection.
type Transport struct {
	// Base performs real round trips (nil = http.DefaultTransport).
	Base http.RoundTripper
	// OnFault, when non-nil, observes each injected fault kind
	// ("drop", "5xx", "disconnect", "spike"). Called under the
	// transport's lock; keep it cheap.
	OnFault func(kind string, req *http.Request)

	mu     sync.Mutex
	plan   Plan
	src    *rng.Source
	faults uint64
	trips  uint64
}

// NewTransport returns a fault-injecting transport over base.
func NewTransport(base http.RoundTripper, plan Plan) *Transport {
	return &Transport{Base: base, plan: plan, src: rng.New(plan.Seed)}
}

// Counts reports the number of round trips attempted and faults
// injected so far.
func (t *Transport) Counts() (trips, faults uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.trips, t.faults
}

// decide draws this request's fault, if any. One draw per fault class
// in a fixed order keeps the schedule a pure function of the seed and
// the request sequence.
func (t *Transport) decide(req *http.Request) (kind string, spike time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trips++
	p := t.plan
	if t.src.Float64() < p.Drop {
		kind = "drop"
	}
	if t.src.Float64() < p.Err5xx && kind == "" {
		kind = "5xx"
	}
	if t.src.Float64() < p.Disconnect && kind == "" {
		kind = "disconnect"
	}
	if t.src.Float64() < p.SpikeProb {
		spike = p.Spike
	}
	if kind != "" || spike > 0 {
		t.faults++
		if t.OnFault != nil {
			if kind != "" {
				t.OnFault(kind, req)
			} else {
				t.OnFault("spike", req)
			}
		}
	}
	return kind, spike
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	kind, spike := t.decide(req)
	if spike > 0 {
		select {
		case <-time.After(spike):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	switch kind {
	case "drop":
		return nil, fmt.Errorf("%w: dropped %s %s", ErrInjected, req.Method, req.URL)
	case "5xx":
		body := fmt.Sprintf(`{"error":"faultnet: injected 503 for %s"}`, req.URL.Path)
		return &http.Response{
			StatusCode: http.StatusServiceUnavailable,
			Status:     "503 Service Unavailable (injected)",
			Proto:      req.Proto, ProtoMajor: req.ProtoMajor, ProtoMinor: req.ProtoMinor,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(bytes.NewReader([]byte(body))),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	if err != nil || kind != "disconnect" {
		return resp, err
	}
	// Sever the stream after a bounded prefix of the body: enough for
	// the reader to have committed to this response, never the whole
	// document.
	resp.Body = &cutBody{rc: resp.Body, remaining: 512}
	return resp, nil
}

// cutBody forwards up to remaining bytes and then fails the stream.
type cutBody struct {
	rc        io.ReadCloser
	remaining int
}

func (c *cutBody) Read(p []byte) (int, error) {
	if c.remaining <= 0 {
		return 0, fmt.Errorf("%w: mid-stream disconnect", ErrInjected)
	}
	if len(p) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.rc.Read(p)
	c.remaining -= n
	if err == io.EOF {
		// The response was shorter than the cut point; nothing to sever.
		return n, err
	}
	if c.remaining <= 0 && err == nil {
		err = fmt.Errorf("%w: mid-stream disconnect", ErrInjected)
	}
	return n, err
}

func (c *cutBody) Close() error { return c.rc.Close() }

// Corruptor is a seeded disk-corruption injector: each Strike picks
// one eligible file under its directory (sorted name order, so a seed
// addresses the same file on every run) and flips one seeded bit in
// it. It models silent media bitrot for store-integrity drills —
// exactly the failure the store's checksum verification and scrubber
// must catch.
type Corruptor struct {
	dir string
	ext string
	src *rng.Source
}

// NewCorruptor returns a corruptor over the files in dir whose names
// end in ext ("" = every regular file). Hidden files (temp writes) are
// never eligible.
func NewCorruptor(dir, ext string, seed uint64) *Corruptor {
	return &Corruptor{dir: dir, ext: ext, src: rng.New(seed)}
}

// Strike flips one bit in one eligible file and returns its path and
// the byte offset struck. It fails if no eligible file exists.
func (c *Corruptor) Strike() (path string, offset int64, err error) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return "", 0, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, ".") {
			continue
		}
		if c.ext != "" && !strings.HasSuffix(name, c.ext) {
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return "", 0, fmt.Errorf("faultnet: no %q files under %s to corrupt", c.ext, c.dir)
	}
	sort.Strings(names)
	name := names[int(c.src.Uint64()%uint64(len(names)))]
	path = filepath.Join(c.dir, name)
	offset, err = CorruptFile(path, c.src.Uint64())
	return path, offset, err
}

// CorruptFile flips one seeded bit in the file at path, in place, and
// returns the byte offset struck. An empty file cannot be corrupted.
func CorruptFile(path string, seed uint64) (int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if st.Size() == 0 {
		return 0, fmt.Errorf("faultnet: %s is empty; nothing to corrupt", path)
	}
	src := rng.New(seed)
	off := int64(src.Uint64() % uint64(st.Size()))
	bit := byte(1) << (src.Uint64() % 8)
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return 0, err
	}
	b[0] ^= bit
	if _, err := f.WriteAt(b[:], off); err != nil {
		return 0, err
	}
	return off, f.Sync()
}
