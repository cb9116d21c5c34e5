package obs

import (
	"encoding/json"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Add(3)
	r.Counter("a").Add(2)
	if got := r.Counter("a").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	g := r.Gauge("depth")
	g.Set(4)
	g.Add(-6)
	g.Add(10)
	if g.Value() != 8 || g.Min() != -2 || g.Max() != 8 {
		t.Fatalf("gauge value/min/max = %d/%d/%d, want 8/-2/8", g.Value(), g.Min(), g.Max())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 1, 2, 3, 4, 7, 8, 1023, 1024} {
		h.Observe(v)
	}
	if h.Count() != 10 || h.MinV != 0 || h.MaxV != 1024 {
		t.Fatalf("count/min/max = %d/%d/%d", h.Count(), h.MinV, h.MaxV)
	}
	// value 0 -> bucket 0; 1 -> bucket 1; 2,3 -> bucket 2; 4..7 -> 3;
	// 8 -> 4; 1023 -> 10; 1024 -> 11.
	want := map[int]uint64{0: 1, 1: 2, 2: 2, 3: 2, 4: 1, 10: 1, 11: 1}
	for i, c := range h.Buckets {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	lo, hi := BucketBounds(3)
	if lo != 4 || hi != 7 {
		t.Fatalf("BucketBounds(3) = [%d,%d], want [4,7]", lo, hi)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(5)
	a.Observe(100)
	b.Observe(2)
	b.Observe(3000)
	a.Merge(&b)
	if a.Count() != 4 || a.MinV != 2 || a.MaxV != 3000 || a.Sum != 5+100+2+3000 {
		t.Fatalf("merged count/min/max/sum = %d/%d/%d/%d", a.Count(), a.MinV, a.MaxV, a.Sum)
	}
	var empty Histogram
	a.Merge(&empty) // no-op
	if a.Count() != 4 {
		t.Fatalf("merge with empty changed count: %d", a.Count())
	}
}

func TestRegistryJSONDeterministic(t *testing.T) {
	build := func(order []string) string {
		r := NewRegistry()
		for _, n := range order {
			r.Counter(n).Add(1)
		}
		r.Gauge("g").Set(7)
		r.Histogram("h").Observe(12)
		var sb strings.Builder
		if err := r.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a := build([]string{"zeta", "alpha", "mid"})
	b := build([]string{"mid", "zeta", "alpha"})
	if a != b {
		t.Fatalf("registry JSON depends on insertion order:\n%s\nvs\n%s", a, b)
	}
	r, err := ReadJSON(strings.NewReader(a))
	if err != nil {
		t.Fatalf("registry JSON does not parse: %v\n%s", err, a)
	}
	if r.Counter("alpha").Value() != 1 || len(r.CounterNames()) != 3 {
		t.Fatalf("counters round-trip: %v", r.CounterNames())
	}
	if h := r.Histogram("h"); h.Count() != 1 || h.Buckets[4] != 1 {
		t.Fatalf("histogram round-trip: %+v", h)
	}
}

// TestReadJSONRoundTrip checks that ReadJSON inverts WriteJSON: the
// document of a read-back registry is the document read, and every
// value survives, over registries that mix counters, gauges at
// negative levels and histograms holding 0 and large values.
func TestReadJSONRoundTrip(t *testing.T) {
	empty := NewRegistry()
	mixed := NewRegistry()
	mixed.Counter("zero")
	mixed.Counter("one").Add(1)
	mixed.Counter("max").Add(math.MaxUint64)
	for _, v := range []int64{-5, 3, -2} {
		mixed.Gauge("depth").Set(v)
	}
	mixed.Gauge("floor").Set(math.MinInt64)
	mixed.Gauge("unset")
	for _, v := range []uint64{0, 0, 1, 7, 1 << 40, math.MaxUint64} {
		mixed.Histogram("wide").Observe(v)
	}
	mixed.Histogram("none")
	for v := uint64(0); v < 1000; v += 7 {
		mixed.Histogram("dense").Observe(v * v)
	}
	for _, r := range []*Registry{empty, mixed} {
		var doc strings.Builder
		if err := r.WriteJSON(&doc); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSON(strings.NewReader(doc.String()))
		if err != nil {
			t.Fatalf("ReadJSON: %v\n%s", err, doc.String())
		}
		var again strings.Builder
		if err := back.WriteJSON(&again); err != nil {
			t.Fatal(err)
		}
		if again.String() != doc.String() {
			t.Fatalf("WriteJSON(ReadJSON(doc)) differs from doc\ngot:\n%s\nwant:\n%s", again.String(), doc.String())
		}
		for _, name := range r.CounterNames() {
			if got, want := back.Counter(name).Value(), r.Counter(name).Value(); got != want {
				t.Errorf("counter %s = %d, want %d", name, got, want)
			}
		}
		for _, name := range r.GaugeNames() {
			g, want := back.Gauge(name), r.Gauge(name)
			if g.Value() != want.Value() || g.Min() != want.Min() || g.Max() != want.Max() {
				t.Errorf("gauge %s = %d [%d, %d], want %d [%d, %d]", name,
					g.Value(), g.Min(), g.Max(), want.Value(), want.Min(), want.Max())
			}
		}
		for _, name := range r.HistogramNames() {
			if got, want := *back.Histogram(name), *r.Histogram(name); got != want {
				t.Errorf("histogram %s = %+v, want %+v", name, got, want)
			}
		}
	}
}

// TestReadJSONRejectsMalformed checks that input WriteJSON could not
// have written is an error: obsdiff reads dumps from files and URLs.
func TestReadJSONRejectsMalformed(t *testing.T) {
	for _, doc := range []string{
		``,
		`{"counters": {"a": 1}`,
		`{"counters": {"a": 1}} {}`,
		`[1, 2]`,
		`{"counters": {"a": -1}}`,
		`{"counters": {"a": 1.5}}`,
		`{"gauges": {"g": {"value": "x", "min": 0, "max": 0}}}`,
		`{"histograms": {"h": {"count": 1, "sum": 4, "min": 4, "max": 4, "buckets": [{"lo": 3, "hi": 5, "count": 1}]}}}`,
		`{"histograms": {"h": {"count": 2, "sum": 2, "min": 2, "max": 2, "buckets": [{"lo": 2, "hi": 3, "count": 1}]}}}`,
	} {
		if _, err := ReadJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("ReadJSON(%q) accepted malformed input", doc)
		}
	}
}

// TestSharedConcurrent updates one Shared from several goroutines while
// another renders it, and checks that no update is lost. Updates
// through a nil *Shared do nothing.
func TestSharedConcurrent(t *testing.T) {
	s := NewShared()
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.Count("c", 1)
				s.GaugeAdd("g", 1)
				s.GaugeSet("last", int64(i))
				s.Observe("h", uint64(i))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if err := s.WriteJSON(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	s.Read(func(r *Registry) {
		if c, g, h := r.Counter("c").Value(), r.Gauge("g").Value(), r.Histogram("h").Count(); c != workers*each || g != workers*each || h != workers*each {
			t.Errorf("counter %d, gauge %d, histogram count %d; want %d each", c, g, h, workers*each)
		}
	})
	var none *Shared
	none.Count("c", 1)
	none.GaugeSet("g", 1)
	none.GaugeAdd("g", 1)
	none.Observe("h", 1)
}

// TestHistogramPercentileUpperBound checks the log2 estimator: the
// upper bound of the bucket where the cumulative count reaches the
// rank, clamped to the recorded max.
func TestHistogramPercentileUpperBound(t *testing.T) {
	// 10 observations: 4 in [1,1], 4 in [2,3], 2 in [8,15].
	h := Histogram{N: 10, MinV: 1, MaxV: 12}
	h.Buckets[1], h.Buckets[2], h.Buckets[4] = 4, 4, 2
	if got := h.Percentile(50); got != 3 {
		t.Errorf("p50 = %d, want 3 (upper bound of the bucket reaching rank 5)", got)
	}
	// p99 lands in the top bucket, whose bound exceeds the recorded max:
	// clamp to max so the estimate never invents latency beyond what was
	// seen.
	if got := h.Percentile(99); got != 12 {
		t.Errorf("p99 = %d, want max 12", got)
	}
	if got := (&Histogram{}).Percentile(99); got != 0 {
		t.Errorf("empty histogram p99 = %d, want 0", got)
	}
}

func TestEventBufferJSON(t *testing.T) {
	b := NewEventBuffer()
	b.SetProcessName(0, "node 0")
	b.SetThreadName(0, TrackQuanta, "quanta")
	b.Duration("quantum", "tam", 0, TrackQuanta, 100, 50)
	b.Instant("pri-switch 0->1", "machine", 0, TrackLow, 120)
	b.FlowStart("msg", "net", 0, TrackLow, 130, 42)
	b.FlowFinish("msg", "net", 1, TrackHigh, 140, 42)
	b.DurationArg("handler", "machine", 0, TrackLow, 100, 10, "words", 6)

	var sb strings.Builder
	if err := b.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Ts   uint64          `json:"ts"`
			Dur  uint64          `json:"dur"`
			Pid  int32           `json:"pid"`
			Tid  int32           `json:"tid"`
			ID   uint64          `json:"id"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &parsed); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, sb.String())
	}
	// 2 metadata + 5 events.
	if len(parsed.TraceEvents) != 7 {
		t.Fatalf("got %d records, want 7", len(parsed.TraceEvents))
	}
	var flows int
	for _, e := range parsed.TraceEvents {
		switch e.Ph {
		case "s", "f":
			flows++
			if e.ID != 42 {
				t.Errorf("flow id = %d, want 42", e.ID)
			}
		case "X":
			if e.Dur == 0 {
				t.Errorf("complete event %q missing dur", e.Name)
			}
		}
	}
	if flows != 2 {
		t.Fatalf("got %d flow records, want 2", flows)
	}
}
