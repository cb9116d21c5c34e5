package jmtam

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"jmtam/internal/core"
)

// traceFile mirrors the Chrome trace-event JSON shape for parsing.
type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Cat  string          `json:"cat"`
	Ts   uint64          `json:"ts"`
	Dur  uint64          `json:"dur"`
	Pid  int32           `json:"pid"`
	Tid  int32           `json:"tid"`
	ID   uint64          `json:"id"`
	Args json.RawMessage `json:"args"`
}

func runWithSink(t *testing.T, impl Impl, withEvents bool) (*Result, *Sink) {
	t.Helper()
	var opts []SinkOption
	if withEvents {
		opts = append(opts, WithEvents())
	}
	snk := NewSink(opts...)
	res, err := Run(impl, Benchmark("qs", 16), Options{Obs: snk},
		CacheConfig{SizeBytes: 8 * 1024, BlockBytes: 64, Assoc: 4})
	if err != nil {
		t.Fatal(err)
	}
	return res, snk
}

// TestSinkInvariance checks the tentpole guarantee: under every
// registry backend, attaching a sink (with or without the event buffer)
// leaves every simulation result — instruction counts, granularity,
// references, cache misses — identical to the uninstrumented run.
func TestSinkInvariance(t *testing.T) {
	for _, b := range core.Backends() {
		impl := b.Impl
		base, err := Run(impl, Benchmark("qs", 16), Options{},
			CacheConfig{SizeBytes: 8 * 1024, BlockBytes: 64, Assoc: 4})
		if err != nil {
			t.Fatal(err)
		}
		metricsOnly, _ := runWithSink(t, impl, false)
		full, _ := runWithSink(t, impl, true)
		if !reflect.DeepEqual(base, metricsOnly) {
			t.Errorf("%v: result changed with metrics sink:\nbase %+v\nsink %+v",
				impl, base, metricsOnly)
		}
		if !reflect.DeepEqual(base, full) {
			t.Errorf("%v: result changed with event sink:\nbase %+v\nsink %+v",
				impl, base, full)
		}
	}
}

// TestSinkMetricsPopulated checks that one instrumented run fills the
// metric families the paper's analysis needs.
func TestSinkMetricsPopulated(t *testing.T) {
	_, snk := runWithSink(t, AM, false)
	r := snk.Metrics
	for _, h := range []string{"quantum.threads", "quantum.instrs",
		"queue.depth.high", "queue.wait.high", "handler.latency.high",
		"inlet.latency"} {
		if r.Histogram(h).Count() == 0 {
			t.Errorf("histogram %s empty after AM qs run", h)
		}
	}
	for _, c := range []string{"instrs.total", "post.calls", "pri.switches",
		"tam.threads", "tam.quanta"} {
		if r.Counter(c).Value() == 0 {
			t.Errorf("counter %s zero after AM qs run", c)
		}
	}
	if got, want := r.Counter("tam.quanta").Value(),
		r.Histogram("quantum.threads").Count(); got != want {
		t.Errorf("tam.quanta = %d but quantum.threads histogram has %d samples", got, want)
	}
}

// TestPerfettoRoundTrip exports a real run's timeline and re-parses it
// with encoding/json, checking the invariants a trace viewer relies on:
// flow starts and finishes pair by id, instants carry a scope, and the
// duration events on every track nest (stack discipline — a span that
// starts inside another ends inside it too).
func TestPerfettoRoundTrip(t *testing.T) {
	_, snk := runWithSink(t, AM, true)

	var buf bytes.Buffer
	if err := snk.Events.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("exported trace does not parse: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}

	byPh := map[string][]traceEvent{}
	for _, e := range tf.TraceEvents {
		byPh[e.Ph] = append(byPh[e.Ph], e)
	}
	for _, ph := range []string{"M", "X", "i", "s", "f"} {
		if len(byPh[ph]) == 0 {
			t.Errorf("no %q events in exported trace", ph)
		}
	}

	// Flow events must pair: every finish has a start with the same id.
	starts := map[uint64]int{}
	for _, e := range byPh["s"] {
		starts[e.ID]++
	}
	for _, e := range byPh["f"] {
		if starts[e.ID] == 0 {
			t.Errorf("flow finish id %d has no start", e.ID)
		}
	}

	// Duration events must nest per track.
	type span struct{ ts, end uint64 }
	tracks := map[[2]int32][]span{}
	for _, e := range byPh["X"] {
		k := [2]int32{e.Pid, e.Tid}
		tracks[k] = append(tracks[k], span{e.Ts, e.Ts + e.Dur})
	}
	for k, spans := range tracks {
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].ts != spans[j].ts {
				return spans[i].ts < spans[j].ts
			}
			return spans[i].end > spans[j].end // outer span first
		})
		var stack []span
		for _, s := range spans {
			for len(stack) > 0 && stack[len(stack)-1].end <= s.ts {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && s.end > stack[len(stack)-1].end {
				t.Fatalf("track %v: span [%d,%d) overlaps enclosing span ending at %d",
					k, s.ts, s.end, stack[len(stack)-1].end)
			}
			stack = append(stack, s)
		}
	}
}

// TestTimelineGolden pins the Perfetto timeline of one quick run under
// AM and under Offload, whose inlets run on the NIC engine, by the
// SHA-256 of its exported bytes: every handler and inlet span, priority
// switch and flow arrow lands at the same instruction count.
func TestTimelineGolden(t *testing.T) {
	for impl, want := range map[Impl]string{
		AM:      "8ee83fa22b6d7f8c6e6bc353be0b5b55fce800efe6e42393a408c3ac242543ce",
		Offload: "6b4679f9a1054e9d931f93e0bd366c39061d82daba9868a65685d6e26356b185",
	} {
		_, snk := runWithSink(t, impl, true)
		h := sha256.New()
		if err := snk.Events.WriteJSON(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%v: timeline SHA-256 %s, want %s", impl, got, want)
		}
	}
}

// TestSweepCollectMetrics checks the façade knob: a sweep with
// CollectMetrics set attaches a registry to every run.
func TestSweepCollectMetrics(t *testing.T) {
	sw := NewQuickSweep()
	sw.Workloads = sw.Workloads[:1]
	sw.SizesKB = []int{8}
	sw.Assocs = []int{4}
	sw.CollectMetrics = true
	ds, err := sw.Execute()
	if err != nil {
		t.Fatal(err)
	}
	geomPre := ds.Geoms[0].String() + ": "
	for _, byImpl := range ds.Runs {
		for _, r := range byImpl {
			if r.Metrics == nil {
				t.Fatalf("%s/%v: no metrics collected", r.Workload.Name, r.Impl)
			}
			if r.Metrics.Counter("instrs.total").Value() != r.Instructions {
				t.Errorf("%s/%v: instrs.total %d != Instructions %d",
					r.Workload.Name, r.Impl,
					r.Metrics.Counter("instrs.total").Value(), r.Instructions)
			}
			if r.Metrics.Counter(geomPre+"cache.miss.fetch.sys-code").Value()+
				r.Metrics.Counter(geomPre+"cache.miss.fetch.user-code").Value() == 0 {
				t.Errorf("%s/%v: no miss attribution recorded", r.Workload.Name, r.Impl)
			}
		}
	}
}
