// Package obs is the simulator's observability subsystem: a metrics
// registry (counters, gauges and log-bucketed histograms keyed by stable
// names) and a timestamped event stream with a Chrome-trace-event /
// Perfetto JSON exporter.
//
// The serving stack counts into one Shared registry, whose document
// /metricz serves. Every reader of that document parses it with
// ReadJSON and estimates percentiles with Histogram.Percentile.
//
// The package is a leaf: the machine engine, the TAM runtime, the trace
// layer, the network model and the cluster driver all hold an optional
// *Sink and emit into it behind a nil guard, so the disabled path costs
// one pointer test per hook site and instrumentation never perturbs
// simulation results — metrics and events are derived strictly from
// observation, never fed back.
//
// Timestamps are dynamic instruction counts (one simulated cycle per
// instruction, the paper's cycle model), exported to Perfetto as
// microseconds so one instruction reads as 1us on the timeline.
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
)

// Counter is a monotonically increasing count.
type Counter struct {
	v uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.v += d }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is an instantaneous level with min/max watermarks.
type Gauge struct {
	v        int64
	min, max int64
	set      bool
}

// Set records a new level.
func (g *Gauge) Set(v int64) {
	g.v = v
	if !g.set || v < g.min {
		g.min = v
	}
	if !g.set || v > g.max {
		g.max = v
	}
	g.set = true
}

// Add moves the level by d.
func (g *Gauge) Add(d int64) { g.Set(g.v + d) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v }

// Max returns the highest level ever set.
func (g *Gauge) Max() int64 { return g.max }

// Min returns the lowest level ever set.
func (g *Gauge) Min() int64 { return g.min }

// histBuckets is the number of log2 buckets: bucket 0 holds the value 0
// and bucket i (i >= 1) holds values v with bits.Len64(v) == i, i.e.
// 2^(i-1) <= v < 2^i. 65 buckets cover the full uint64 range.
const histBuckets = 65

// Histogram is a log2-bucketed distribution. The zero value is ready to
// use, which lets hot-path owners embed one by value.
type Histogram struct {
	Buckets [histBuckets]uint64
	N       uint64
	Sum     uint64
	MinV    uint64
	MaxV    uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.Buckets[bits.Len64(v)]++
	if h.N == 0 || v < h.MinV {
		h.MinV = v
	}
	if v > h.MaxV {
		h.MaxV = v
	}
	h.N++
	h.Sum += v
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.N }

// Mean returns the arithmetic mean of the samples, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.N == 0 {
		return
	}
	for i, c := range other.Buckets {
		h.Buckets[i] += c
	}
	if h.N == 0 || other.MinV < h.MinV {
		h.MinV = other.MinV
	}
	if other.MaxV > h.MaxV {
		h.MaxV = other.MaxV
	}
	h.N += other.N
	h.Sum += other.Sum
}

// Percentile estimates the p-th percentile (0 < p <= 100): the upper
// bound of the first bucket where the cumulative count reaches
// ceil(p/100 * N), clamped to the recorded max (0 when empty). An
// upper-bound estimate can only over-report a latency, so an SLO that
// passes against it also holds for the true distribution.
func (h *Histogram) Percentile(p float64) uint64 {
	target := max(uint64(math.Ceil(p/100*float64(h.N))), 1)
	var cum uint64
	for i, c := range h.Buckets {
		cum += c
		if cum >= target {
			_, hi := BucketBounds(i)
			return min(hi, h.MaxV)
		}
	}
	return h.MaxV
}

// BucketBounds returns the inclusive value range [lo, hi] covered by
// bucket i.
func BucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 0
	}
	return 1 << (i - 1), 1<<i - 1
}

// Registry maps stable names to metrics. Lookup interns the handle, so
// hot paths resolve their metrics once and then update through the
// pointer. A Registry is not safe for concurrent use; parallel sweeps
// give each simulation its own registry.
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// CounterNames returns the registered counter names, sorted.
func (r *Registry) CounterNames() []string { return sortedKeys(r.counters) }

// GaugeNames returns the registered gauge names, sorted.
func (r *Registry) GaugeNames() []string { return sortedKeys(r.gauges) }

// HistogramNames returns the registered histogram names, sorted.
func (r *Registry) HistogramNames() []string { return sortedKeys(r.histograms) }

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// WriteJSON emits the registry as deterministic (name-sorted) JSON:
//
//	{"counters":{...},"gauges":{...},"histograms":{...}}
//
// Histogram buckets are emitted sparsely as {lo,hi,count} objects.
func (r *Registry) WriteJSON(w io.Writer) error {
	var b strings.Builder
	b.WriteString("{\n  \"counters\": {")
	for i, name := range r.CounterNames() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "\n    %q: %d", name, r.counters[name].Value())
	}
	b.WriteString("\n  },\n  \"gauges\": {")
	for i, name := range r.GaugeNames() {
		if i > 0 {
			b.WriteByte(',')
		}
		g := r.gauges[name]
		fmt.Fprintf(&b, "\n    %q: {\"value\": %d, \"min\": %d, \"max\": %d}",
			name, g.Value(), g.Min(), g.Max())
	}
	b.WriteString("\n  },\n  \"histograms\": {")
	for i, name := range r.HistogramNames() {
		if i > 0 {
			b.WriteByte(',')
		}
		h := r.histograms[name]
		fmt.Fprintf(&b, "\n    %q: {\"count\": %d, \"sum\": %d, \"min\": %d, \"max\": %d, \"mean\": %.3f, \"buckets\": [",
			name, h.N, h.Sum, h.MinV, h.MaxV, h.Mean())
		first := true
		for bi, c := range h.Buckets {
			if c == 0 {
				continue
			}
			if !first {
				b.WriteString(", ")
			}
			first = false
			lo, hi := BucketBounds(bi)
			fmt.Fprintf(&b, "{\"lo\": %d, \"hi\": %d, \"count\": %d}", lo, hi, c)
		}
		b.WriteString("]}")
	}
	b.WriteString("\n  }\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// ReadJSON parses a document WriteJSON emitted back into a registry:
// WriteJSON(ReadJSON(doc)) reproduces doc. The mean is recomputed, not
// read. Input that is not such a document — malformed JSON, a wrong
// type, a bucket that is not a log2 bucket, bucket counts that do not
// sum to the histogram's count — is an error.
func ReadJSON(rd io.Reader) (*Registry, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, err
	}
	// encoding/json matches the document's lower-case keys to these
	// field names.
	var doc struct {
		Counters   map[string]uint64
		Gauges     map[string]struct{ Value, Min, Max int64 }
		Histograms map[string]struct {
			Count, Sum, Min, Max uint64
			Buckets              []struct{ Lo, Hi, Count uint64 }
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("obs: metrics document: %w", err)
	}
	r := NewRegistry()
	for name, v := range doc.Counters {
		r.counters[name] = &Counter{v: v}
	}
	for name, g := range doc.Gauges {
		r.gauges[name] = &Gauge{v: g.Value, min: g.Min, max: g.Max, set: true}
	}
	for name, dh := range doc.Histograms {
		h := &Histogram{N: dh.Count, Sum: dh.Sum, MinV: dh.Min, MaxV: dh.Max}
		var n uint64
		for _, bk := range dh.Buckets {
			i := bits.Len64(bk.Lo)
			if lo, hi := BucketBounds(i); lo != bk.Lo || hi != bk.Hi {
				return nil, fmt.Errorf("obs: histogram %q: [%d, %d] is not a log2 bucket", name, bk.Lo, bk.Hi)
			}
			h.Buckets[i] += bk.Count
			n += bk.Count
		}
		if n != h.N {
			return nil, fmt.Errorf("obs: histogram %q: buckets hold %d samples, count is %d", name, n, h.N)
		}
		r.histograms[name] = h
	}
	return r, nil
}

// Shared is a registry that many goroutines update by name, safe for
// concurrent use: the serving stack's one /metricz registry, which the
// daemon, its caches, stores, journal and shard coordinator count into.
// Each update takes one lock. Updates through a nil *Shared do nothing,
// so a component built without metrics needs no guard.
type Shared struct {
	mu  sync.Mutex
	reg *Registry
}

// NewShared returns an empty shared registry.
func NewShared() *Shared { return &Shared{reg: NewRegistry()} }

// Count adds d to the named counter; d = 0 registers it at zero.
func (s *Shared) Count(name string, d uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.reg.Counter(name).Add(d)
	s.mu.Unlock()
}

// GaugeSet sets the named gauge to v.
func (s *Shared) GaugeSet(name string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.reg.Gauge(name).Set(v)
	s.mu.Unlock()
}

// GaugeAdd moves the named gauge by d.
func (s *Shared) GaugeAdd(name string, d int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.reg.Gauge(name).Add(d)
	s.mu.Unlock()
}

// Observe records v in the named histogram.
func (s *Shared) Observe(name string, v uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.reg.Histogram(name).Observe(v)
	s.mu.Unlock()
}

// WriteJSON writes the registry as Registry.WriteJSON does. It renders
// under the lock and writes after releasing it, so a slow reader never
// stalls the updaters.
func (s *Shared) WriteJSON(w io.Writer) error {
	var b bytes.Buffer
	s.mu.Lock()
	s.reg.WriteJSON(&b) // a bytes.Buffer write cannot fail
	s.mu.Unlock()
	_, err := w.Write(b.Bytes())
	return err
}

// Read runs fn on the registry under the lock, for a caller that reads
// values back, such as a test.
func (s *Shared) Read(fn func(r *Registry)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.reg)
}
