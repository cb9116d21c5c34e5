package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"

	"jmtam/api"
	"jmtam/internal/obs"
	"jmtam/internal/tracestore"
)

// The result cache is the front door's second content-addressed tier:
// where the recording store deduplicates *simulations*, the result
// cache deduplicates whole *jobs*. A result is keyed by the canonical
// encoding of its normalized request, and the stored bytes are the
// exact marshaled result document, so a cache hit is byte-identical to
// fresh execution by construction. It reuses tracestore's LRU/disk/
// peer/singleflight machinery with a JSON payload profile, so repeated
// runs and sweeps are O(lookup) fleet-wide.

// resultFormatVersion participates in every result key: bump it when
// the result document format changes so stale cached documents
// invalidate fleet-wide instead of being served under the new format.
const resultFormatVersion = 1

// DefaultResultMemBytes bounds the result cache's memory tier when the
// config leaves it zero.
const DefaultResultMemBytes = 64 << 20

// resultKey is the content address of a job's result: SHA-256 over the
// format version, the job kind and the canonical (normalized,
// field-order-stable) wire encoding of the request. Two daemons
// normalizing the same submission derive the same key.
func resultKey(kind string, wire any) (string, error) {
	b, err := json.Marshal(wire)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "jres-v%d\x00%s\x00", resultFormatVersion, kind)
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// newResultFleet builds the result cache over the generic tracestore
// tiers: ".json" blobs under <storeDir>/results, "results.*" metrics,
// peer resolution via /v1/results/, JSON validation on peer fetches.
func newResultFleet(cfg Config, m *obs.Shared) (*tracestore.Fleet, error) {
	dir := ""
	if cfg.StoreDir != "" {
		dir = filepath.Join(cfg.StoreDir, "results")
	}
	st, err := tracestore.NewWith(dir, cfg.ResultMemBytes, m, tracestore.Options{
		Ext:    ".json",
		Prefix: "results",
	})
	if err != nil {
		return nil, err
	}
	return tracestore.NewFleetWith(st, cfg.StorePeers, nil, m, tracestore.FleetConfig{
		Path:   "/v1/results/",
		Prefix: "results",
		Validate: func(data []byte) error {
			if !json.Valid(data) {
				return errors.New("not a JSON document")
			}
			return nil
		},
		Saved: func([]byte) uint64 { return 0 },
	}), nil
}

// cachedResult resolves a job's result through the cache: local tier,
// then peers, then fresh execution (recorded and pushed fleet-wide),
// with singleflight so concurrent identical submissions execute once.
// A job whose fresh function never ran gets a "cached" stream event
// naming the source; its stream then goes straight to the terminal
// result line.
func (s *Server) cachedResult(ctx context.Context, job *Job, kind string, wire any, fresh func(ctx context.Context) (json.RawMessage, error)) (json.RawMessage, error) {
	if s.results == nil {
		return fresh(ctx)
	}
	key, err := resultKey(kind, wire)
	if err != nil {
		return nil, err
	}
	ran := false
	data, src, err := s.results.GetOrRecord(ctx, key, func(ctx context.Context) ([]byte, error) {
		ran = true
		return fresh(ctx)
	})
	if err != nil {
		return nil, err
	}
	if !ran {
		source := src.String()
		if src == tracestore.SourceRecorded {
			// Coalesced into a concurrent identical job's execution.
			source = "coalesced"
		}
		s.metrics.Count("results.served", 1)
		job.emit(api.Cached(job.ID, source, key))
	}
	return data, nil
}
