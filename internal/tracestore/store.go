// Package tracestore is a content-addressed store for compacted trace
// recordings. Keys are SHA-256 digests of the canonical run descriptor
// (program, argument, implementation, mesh size, placement), so every
// daemon in a fleet derives the same key for the same simulation and a
// recording made anywhere serves replays everywhere. The store has an
// in-memory LRU tier bounded by bytes and an optional disk tier with
// atomic writes; Fleet layers peer fetch and singleflight on top so a
// fleet records each key at most once.
package tracestore

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"jmtam/internal/obs"
)

// DefaultMemBytes bounds the in-memory tier when New is given a zero
// budget: 256 MiB of compacted recordings, roughly a paper-scale sweep.
const DefaultMemBytes = 256 << 20

// Store is a two-tier content-addressed blob store. The memory tier is
// an LRU bounded by total bytes; the disk tier (optional) persists
// every Put and backfills memory on Get. Values are immutable once
// stored — content addressing means a key's bytes never change — so
// Get returns the stored slice without copying; callers must not
// mutate it.
type Store struct {
	mu       sync.Mutex
	maxBytes int64
	dir      string
	metrics  *obs.Shared
	ext      string
	prefix   string

	ll    *list.List // front = most recently used
	idx   map[string]*list.Element
	bytes int64

	// quarantined tracks keys whose disk blob failed its checksum and
	// was renamed aside, until a Put repairs them or Dismiss gives up.
	quarantined map[string]struct{}
}

type entry struct {
	key  string
	data []byte
}

// Options customizes a Store beyond New's defaults, so the same
// LRU/disk machinery can hold payloads other than trace recordings
// (the server's result cache stores JSON documents through it).
type Options struct {
	// Ext is the disk filename extension, default ".jtr". Stores
	// sharing a directory must use distinct extensions.
	Ext string
	// Prefix replaces "store" in metric names ("<prefix>.hits",
	// "<prefix>.mem.bytes", ...), keeping tiers distinguishable on
	// /metricz.
	Prefix string
}

// New returns a store with the given disk directory ("" = memory only)
// and memory budget in bytes (0 = DefaultMemBytes; negative = no
// memory tier, disk only); m may be nil. It creates a missing directory.
func New(dir string, memBytes int64, m *obs.Shared) (*Store, error) {
	return NewWith(dir, memBytes, m, Options{})
}

// NewWith is New with explicit Options.
func NewWith(dir string, memBytes int64, m *obs.Shared, o Options) (*Store, error) {
	if memBytes == 0 {
		memBytes = DefaultMemBytes
	}
	if memBytes < 0 {
		memBytes = 0
	}
	if o.Ext == "" {
		o.Ext = ".jtr"
	}
	if o.Prefix == "" {
		o.Prefix = "store"
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("tracestore: %w", err)
		}
	}
	return &Store{
		maxBytes:    memBytes,
		dir:         dir,
		metrics:     m,
		ext:         o.Ext,
		prefix:      o.Prefix,
		ll:          list.New(),
		idx:         make(map[string]*list.Element),
		quarantined: make(map[string]struct{}),
	}, nil
}

// ValidKey reports whether key is a well-formed content address: 64
// lowercase hex digits.
func ValidKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

var errBadKey = errors.New("tracestore: key is not a 64-digit hex content address")

func (s *Store) count(name string, d uint64) {
	s.metrics.Count(s.prefix+name, d)
}

func (s *Store) gauges() {
	s.metrics.GaugeSet(s.prefix+".mem.bytes", s.bytes)
	s.metrics.GaugeSet(s.prefix+".mem.entries", int64(s.ll.Len()))
}

// Get returns the stored bytes for key. A memory hit refreshes the
// entry's recency; a disk hit backfills the memory tier. The returned
// slice is shared and must not be modified.
func (s *Store) Get(key string) ([]byte, bool) {
	return s.lookup(key, true)
}

// lookup is Get with metrics optional: internal double-checks (e.g.
// the singleflight re-check after taking flight ownership) pass
// countMiss=false so one logical request counts at most one miss.
func (s *Store) lookup(key string, countMiss bool) ([]byte, bool) {
	if !ValidKey(key) {
		return nil, false
	}
	s.mu.Lock()
	if el, ok := s.idx[key]; ok {
		s.ll.MoveToFront(el)
		data := el.Value.(*entry).data
		s.mu.Unlock()
		s.count(".hits", 1)
		s.count(".mem.hits", 1)
		return data, true
	}
	s.mu.Unlock()
	if s.dir != "" {
		if data, err := os.ReadFile(s.path(key)); err == nil {
			if !s.verify(key, data) {
				// A corrupt blob is never served: quarantine it and fall
				// through to a miss, so the caller re-fetches or re-records.
				if countMiss {
					s.count(".misses", 1)
				}
				return nil, false
			}
			s.count(".hits", 1)
			s.count(".disk.hits", 1)
			s.admit(key, data)
			return data, true
		}
	}
	if countMiss {
		s.count(".misses", 1)
	}
	return nil, false
}

// checksum returns the content digest stored in a blob's ".sum"
// sidecar: SHA-256 over the blob bytes, hex-encoded. The content
// address (the key) hashes the run *descriptor*, not the bytes, so
// integrity needs its own digest.
func checksum(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func (s *Store) sumPath(key string) string {
	return s.path(key) + ".sum"
}

// verify checks a disk blob against its sidecar checksum. A missing
// sidecar (a blob written before checksums existed) is healed by
// writing one for the current bytes; a mismatch quarantines the blob
// and reports false.
func (s *Store) verify(key string, data []byte) bool {
	want, err := os.ReadFile(s.sumPath(key))
	if err != nil {
		s.writeSum(key, data)
		return true
	}
	if strings.TrimSpace(string(want)) == checksum(data) {
		return true
	}
	s.quarantine(key)
	return false
}

// writeSum writes a blob's sidecar checksum atomically.
func (s *Store) writeSum(key string, data []byte) error {
	f, err := os.CreateTemp(s.dir, "."+key+".sum.tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.WriteString(checksum(data) + "\n"); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, s.sumPath(key)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// quarantine renames a corrupt blob aside (".bad" suffix, kept for
// forensics), drops its sidecar, and tracks the key until a Put
// repairs it or Dismiss abandons it. The blob is gone from the serving
// path the moment this returns.
func (s *Store) quarantine(key string) {
	if err := os.Rename(s.path(key), s.path(key)+".bad"); err != nil {
		os.Remove(s.path(key))
	}
	os.Remove(s.sumPath(key))
	s.mu.Lock()
	s.quarantined[key] = struct{}{}
	n := len(s.quarantined)
	s.mu.Unlock()
	s.count(".corrupt", 1)
	s.metrics.GaugeSet(s.prefix+".quarantined", int64(n))
}

// repaired clears a key's quarantine after a fresh Put replaced the
// corrupt blob.
func (s *Store) repaired(key string) {
	s.mu.Lock()
	_, was := s.quarantined[key]
	delete(s.quarantined, key)
	n := len(s.quarantined)
	s.mu.Unlock()
	if !was {
		return
	}
	s.count(".repaired", 1)
	s.metrics.GaugeSet(s.prefix+".quarantined", int64(n))
}

// Dismiss abandons a key's quarantine without counting a repair — no
// peer had the blob, so there is nothing to wait for; the next demand
// re-records it as a plain record.
func (s *Store) Dismiss(key string) {
	s.mu.Lock()
	delete(s.quarantined, key)
	n := len(s.quarantined)
	s.mu.Unlock()
	s.metrics.GaugeSet(s.prefix+".quarantined", int64(n))
}

// Quarantined returns the number of keys awaiting repair — the scrub
// backlog /readyz reports.
func (s *Store) Quarantined() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.quarantined)
}

// Scrub walks the disk tier verifying every blob against its sidecar
// checksum. Corrupt blobs are quarantined; when the memory tier still
// holds a good copy the disk blob is rewritten from it on the spot
// (counted as a repair), otherwise the key is returned for the caller
// to repair from peers or abandon. Blobs without a sidecar get one.
func (s *Store) Scrub() (needRepair []string, err error) {
	if s.dir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	s.count(".scrubs", 1)
	checked := uint64(0)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, s.ext) || strings.HasPrefix(name, ".") {
			continue
		}
		key := strings.TrimSuffix(name, s.ext)
		if !ValidKey(key) {
			continue
		}
		data, err := os.ReadFile(s.path(key))
		if err != nil {
			continue // racing a concurrent quarantine or removal
		}
		checked++
		if s.verify(key, data) {
			continue
		}
		// The memory tier may still hold the intact bytes; re-persist
		// them instead of asking the fleet.
		s.mu.Lock()
		var good []byte
		if el, ok := s.idx[key]; ok {
			good = el.Value.(*entry).data
		}
		s.mu.Unlock()
		if good != nil && s.writeFile(key, good) == nil {
			s.repaired(key)
			continue
		}
		needRepair = append(needRepair, key)
	}
	s.count(".scrub.checked", checked)
	sort.Strings(needRepair)
	return needRepair, nil
}

// Put stores data under key in both tiers, alongside a ".sum" content
// checksum the read path and scrubber verify. The disk write is atomic
// (temp file + rename), so a crash never leaves a torn blob, and a
// concurrent Get on another daemon sharing the directory sees either
// nothing or the whole recording. A Put of a quarantined key counts as
// its repair.
func (s *Store) Put(key string, data []byte) error {
	if !ValidKey(key) {
		return errBadKey
	}
	if s.dir != "" {
		if err := s.writeFile(key, data); err != nil {
			return err
		}
	}
	s.admit(key, data)
	s.repaired(key)
	return nil
}

// admit inserts data into the memory tier (refreshing an existing
// entry) and evicts from the LRU tail until the tier is within budget.
func (s *Store) admit(key string, data []byte) {
	if s.maxBytes == 0 || int64(len(data)) > s.maxBytes {
		return
	}
	s.mu.Lock()
	if el, ok := s.idx[key]; ok {
		// Content addressing makes this a no-op rewrite; just refresh.
		s.ll.MoveToFront(el)
		s.gauges()
		s.mu.Unlock()
		return
	}
	s.idx[key] = s.ll.PushFront(&entry{key: key, data: data})
	s.bytes += int64(len(data))
	evicted := uint64(0)
	for s.bytes > s.maxBytes {
		tail := s.ll.Back()
		if tail == nil {
			break
		}
		e := tail.Value.(*entry)
		s.ll.Remove(tail)
		delete(s.idx, e.key)
		s.bytes -= int64(len(e.data))
		evicted++
	}
	s.gauges()
	s.mu.Unlock()
	if evicted > 0 {
		s.count(".evictions", evicted)
	}
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+s.ext)
}

func (s *Store) writeFile(key string, data []byte) error {
	f, err := os.CreateTemp(s.dir, "."+key+".tmp*")
	if err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	} else {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("tracestore: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tracestore: %w", err)
	}
	if err := os.Rename(tmp, s.path(key)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tracestore: %w", err)
	}
	if err := s.writeSum(key, data); err != nil {
		// The blob itself landed; a reader finding no sidecar heals it.
		return fmt.Errorf("tracestore: %w", err)
	}
	return nil
}

// Len returns the number of entries resident in the memory tier.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Bytes returns the memory tier's resident size.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}
