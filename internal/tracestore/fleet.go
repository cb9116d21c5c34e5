package tracestore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"jmtam/internal/obs"
	"jmtam/internal/trace"
)

// Desc is the canonical run descriptor a recording is addressed by:
// two daemons computing Key over the same descriptor always agree, so
// a recording made on one serves replays on all. Impl is the
// implementation's display name (core.Impl.String()). Placement is
// the frame-placement policy, "" on the uniprocessor path.
type Desc struct {
	Program   string `json:"program"`
	Arg       int    `json:"arg"`
	Impl      string `json:"impl"`
	Nodes     int    `json:"nodes"`
	Placement string `json:"placement,omitempty"`
}

// Key returns the descriptor's content address: SHA-256 over the
// canonical field encoding. The compact format version participates,
// so a format change invalidates every cached recording instead of
// feeding old bytes to a new decoder.
func (d Desc) Key() string {
	h := sha256.New()
	fmt.Fprintf(h, "jtr-v%d\x00%s\x00%d\x00%s\x00%d\x00%s",
		trace.CompactVersion, d.Program, d.Arg, d.Impl, d.Nodes, d.Placement)
	return hex.EncodeToString(h.Sum(nil))
}

// RunMeta is the simulation summary carried in a compacted recording's
// annotation, so a daemon that fetches a recording can assemble the
// full sweep unit without re-simulating. Floats round-trip exactly
// through JSON (Go emits the shortest representation that decodes to
// the same float64), which keeps fetched sweep documents byte-identical
// to locally recorded ones.
type RunMeta struct {
	Desc
	Instructions uint64  `json:"instructions"`
	TPQ          float64 `json:"tpq"`
	IPT          float64 `json:"ipt"`
	IPQ          float64 `json:"ipq"`
	Threads      uint64  `json:"threads"`
	Quanta       uint64  `json:"quanta"`
}

// Encode returns the annotation bytes for CompactAnnotated.
func (m RunMeta) Encode() []byte {
	b, err := json.Marshal(m)
	if err != nil {
		// RunMeta is plain data; Marshal cannot fail on it.
		panic(err)
	}
	return b
}

// DecodeMeta parses a recording's annotation back into its RunMeta.
func DecodeMeta(annotation []byte) (RunMeta, error) {
	var m RunMeta
	if len(annotation) == 0 {
		return m, errors.New("tracestore: recording carries no run metadata")
	}
	if err := json.Unmarshal(annotation, &m); err != nil {
		return m, fmt.Errorf("tracestore: run metadata: %w", err)
	}
	return m, nil
}

// Source says where GetOrRecord found a recording.
type Source int

const (
	// SourceLocal: the local store already had it.
	SourceLocal Source = iota
	// SourcePeer: fetched compacted from a peer daemon.
	SourcePeer
	// SourceRecorded: simulated from scratch on this daemon.
	SourceRecorded
)

func (s Source) String() string {
	switch s {
	case SourceLocal:
		return "local"
	case SourcePeer:
		return "peer"
	default:
		return "recorded"
	}
}

// Fleet resolves recordings fleet-wide: local store first, then peer
// daemons' /v1/recordings endpoints, and only on a full miss the
// record function — with singleflight per key, so concurrent requests
// for the same simulation record it once. A freshly recorded blob is
// pushed to the peers before GetOrRecord returns, so by the time a
// result is visible the fleet can serve the recording.
type Fleet struct {
	store   *Store
	peers   []string
	client  *http.Client
	metrics *obs.Shared
	cfg     FleetConfig

	mu       sync.Mutex
	inflight map[string]*flight
}

type flight struct {
	done chan struct{}
	data []byte
	src  Source
	err  error
}

// FleetConfig customizes a Fleet for payloads other than trace
// recordings; zero values give the recording defaults.
type FleetConfig struct {
	// Path is the peer endpoint path prefix the key is appended to,
	// default "/v1/recordings/".
	Path string
	// Prefix replaces "store" in the fleet-layer metric names
	// ("<prefix>.records", "<prefix>.peer.hits", ...).
	Prefix string
	// Validate checks a peer-fetched payload before it is trusted;
	// default requires a parseable compact recording header.
	Validate func(data []byte) error
	// Saved, when non-nil, returns the byte savings to credit under
	// "<prefix>.bytes.saved" for a served payload (0 = none). The
	// default credits a recording's packed-minus-compact delta.
	Saved func(data []byte) uint64
}

// NewFleet wraps store with peer fetch against the given base URLs
// ("http://host:port", no trailing slash needed). client may be nil
// (http.DefaultClient); m may be nil.
func NewFleet(store *Store, peers []string, client *http.Client, m *obs.Shared) *Fleet {
	return NewFleetWith(store, peers, client, m, FleetConfig{})
}

// NewFleetWith is NewFleet with explicit FleetConfig.
func NewFleetWith(store *Store, peers []string, client *http.Client, m *obs.Shared, cfg FleetConfig) *Fleet {
	if client == nil {
		client = http.DefaultClient
	}
	if cfg.Path == "" {
		cfg.Path = "/v1/recordings/"
	}
	if cfg.Prefix == "" {
		cfg.Prefix = "store"
	}
	if cfg.Validate == nil {
		cfg.Validate = func(data []byte) error {
			_, err := trace.CompactStat(data)
			return err
		}
	}
	if cfg.Saved == nil {
		cfg.Saved = func(data []byte) uint64 {
			if info, err := trace.CompactStat(data); err == nil && info.PackedBytes > info.CompactBytes {
				return uint64(info.PackedBytes - info.CompactBytes)
			}
			return 0
		}
	}
	return &Fleet{
		store:    store,
		peers:    peers,
		client:   client,
		metrics:  m,
		cfg:      cfg,
		inflight: make(map[string]*flight),
	}
}

// Store returns the underlying local store.
func (f *Fleet) Store() *Store { return f.store }

// Validate runs the fleet's payload check, the one every peer fetch
// runs before trusting the bytes.
func (f *Fleet) Validate(data []byte) error { return f.cfg.Validate(data) }

// Prefix returns the fleet's metric-name prefix ("store", "results").
func (f *Fleet) Prefix() string { return f.cfg.Prefix }

func (f *Fleet) count(name string, d uint64) {
	f.metrics.Count(f.cfg.Prefix+name, d)
}

// GetOrRecord returns the compacted recording for key, resolving
// local store → peers → record, with singleflight per key. The
// returned bytes are shared and must not be modified.
func (f *Fleet) GetOrRecord(ctx context.Context, key string, record func(ctx context.Context) ([]byte, error)) ([]byte, Source, error) {
	if data, ok := f.store.Get(key); ok {
		f.saved(data)
		return data, SourceLocal, nil
	}
	f.mu.Lock()
	if fl := f.inflight[key]; fl != nil {
		f.mu.Unlock()
		f.count(".coalesced", 1)
		select {
		case <-fl.done:
			return fl.data, fl.src, fl.err
		case <-ctx.Done():
			return nil, SourceRecorded, ctx.Err()
		}
	}
	fl := &flight{done: make(chan struct{})}
	f.inflight[key] = fl
	f.mu.Unlock()

	fl.data, fl.src, fl.err = f.fill(ctx, key, record)

	f.mu.Lock()
	delete(f.inflight, key)
	f.mu.Unlock()
	close(fl.done)
	return fl.data, fl.src, fl.err
}

// saved credits the byte savings of one served payload, per the
// config's Saved hook (for recordings: the packed bytes that never had
// to be materialized or moved, minus the compact bytes that did).
func (f *Fleet) saved(data []byte) {
	if f.metrics == nil {
		return
	}
	if d := f.cfg.Saved(data); d > 0 {
		f.count(".bytes.saved", d)
	}
}

func (f *Fleet) fill(ctx context.Context, key string, record func(ctx context.Context) ([]byte, error)) ([]byte, Source, error) {
	// A losing racer may have filled the store between our miss and
	// taking flight ownership. This re-check is part of the same logical
	// request, so it never counts a second miss.
	if data, ok := f.store.lookup(key, false); ok {
		f.saved(data)
		return data, SourceLocal, nil
	}
	for _, peer := range f.peers {
		data, err := f.fetchPeer(ctx, peer, key)
		if err == nil {
			f.count(".peer.hits", 1)
			f.saved(data)
			if err := f.store.Put(key, data); err != nil {
				return nil, SourcePeer, err
			}
			return data, SourcePeer, nil
		}
		if ctx.Err() != nil {
			return nil, SourceRecorded, ctx.Err()
		}
		if errors.Is(err, errPeerMiss) {
			f.count(".peer.misses", 1)
		} else {
			f.count(".peer.errors", 1)
		}
	}
	data, err := record(ctx)
	if err != nil {
		return nil, SourceRecorded, err
	}
	f.count(".records", 1)
	if err := f.store.Put(key, data); err != nil {
		return nil, SourceRecorded, err
	}
	// Push before returning: once a caller sees this result, every peer
	// can serve the recording, which is what makes "record once
	// fleet-wide" hold across sequentially dispatched shards.
	f.push(ctx, key, data)
	return data, SourceRecorded, nil
}

// Repair tries to restore quarantined blobs from peers: each key is
// fetched (validated before trust) and re-Put, which clears its
// quarantine and counts "<prefix>.repaired". A key no peer holds is
// dismissed — there is nothing to wait for; the next demand simply
// re-records it — and counted under "<prefix>.repair.misses". It
// returns the number of keys successfully repaired.
func (f *Fleet) Repair(ctx context.Context, keys []string) int {
	repaired := 0
	for _, key := range keys {
		if ctx.Err() != nil {
			return repaired
		}
		fixed := false
		for _, peer := range f.peers {
			data, err := f.fetchPeer(ctx, peer, key)
			if err != nil {
				continue
			}
			if err := f.store.Put(key, data); err != nil {
				continue
			}
			fixed = true
			break
		}
		if fixed {
			repaired++
		} else {
			f.count(".repair.misses", 1)
			f.store.Dismiss(key)
		}
	}
	return repaired
}

var errPeerMiss = errors.New("tracestore: peer does not have the recording")

func (f *Fleet) fetchPeer(ctx context.Context, peer, key string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.peerURL(peer, key), nil)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return nil, errPeerMiss
	default:
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("tracestore: peer %s: %s", peer, resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	// Validate before trusting a network payload.
	if err := f.cfg.Validate(data); err != nil {
		return nil, fmt.Errorf("tracestore: peer %s sent a corrupt payload: %w", peer, err)
	}
	f.metrics.Observe(f.cfg.Prefix+".peer.fetch.ms", uint64(time.Since(start).Milliseconds()))
	return data, nil
}

// push uploads a freshly recorded blob to every peer, best-effort: a
// peer that is down just records the miss on its own next request.
func (f *Fleet) push(ctx context.Context, key string, data []byte) {
	for _, peer := range f.peers {
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, f.peerURL(peer, key), bytes.NewReader(data))
		if err != nil {
			continue
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := f.client.Do(req)
		if err != nil {
			f.count(".push.errors", 1)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			f.count(".push.errors", 1)
			continue
		}
		f.count(".pushes", 1)
	}
}

func (f *Fleet) peerURL(peer, key string) string {
	return strings.TrimSuffix(peer, "/") + f.cfg.Path + key
}
