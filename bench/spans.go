package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval of a traced operation: a call from the
// benchmark into one layer, or a stage reconstructed from a job's stream
// events. Spans are recorded only by benchmark code; nothing inside the
// program is instrumented.
type Span struct {
	Name string
	ID   int
	// Parent is the enclosing span's ID, 0 for an operation's root.
	Parent int
	// Trace numbers the operation; all its spans share it.
	Trace int
	// Lane separates concurrent work within one operation (one lane per
	// worker), so spans on one lane nest properly.
	Lane       int
	Start, End time.Time
}

func (s Span) dur() time.Duration { return s.End.Sub(s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is an
// untraced run: every method is a no-op.
type Tracer struct {
	mu    sync.Mutex
	last  int
	spans []Span
}

// NewID reserves a span ID, so a parent can be named before it ends.
func (t *Tracer) NewID() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.last++
	return t.last
}

// Add records a finished span; a zero ID is assigned a fresh one. It
// returns the span's ID.
func (t *Tracer) Add(s Span) int {
	if t == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = t.NewID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// Time runs f and records it as a span named name.
func (t *Tracer) Time(name string, trace, parent, lane int, f func() error) error {
	start := time.Now()
	err := f()
	t.Add(Span{Name: name, Parent: parent, Trace: trace, Lane: lane, Start: start, End: time.Now()})
	return err
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// covered returns how much of [lo, hi) the intervals of spans cover.
func covered(spans []Span, lo, hi time.Time) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	var total time.Duration
	cur := lo
	for _, s := range spans {
		start, end := s.Start, s.End
		if start.Before(cur) {
			start = cur
		}
		if end.After(hi) {
			end = hi
		}
		if end.After(start) {
			total += end.Sub(start)
			cur = end
		}
	}
	return total
}

func children(spans []Span) map[int][]Span {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// SelfTimes sums, per span name, each span's duration minus the part of
// it that its child spans cover.
func SelfTimes(spans []Span) map[string]time.Duration {
	kids := children(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}

// Coverage returns the share of the operations' root spans that their
// child spans cover: how much of each traced operation the layer spans
// account for.
func Coverage(spans []Span) float64 {
	kids := children(spans)
	var root, cov time.Duration
	for _, s := range spans {
		if s.Parent == 0 {
			root += s.dur()
			cov += covered(kids[s.ID], s.Start, s.End)
		}
	}
	if root == 0 {
		return 0
	}
	return float64(cov) / float64(root)
}

// chromeEvent is one Chrome trace-event ("X" complete events plus "M"
// thread names), the format Perfetto opens.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// lanesPerTrace spaces operations' Chrome threads apart: thread
// trace*lanesPerTrace+lane holds one lane of one operation.
const lanesPerTrace = 1000

// WriteChrome writes spans as Chrome trace-event JSON: one thread per
// (operation, lane), timestamps in microseconds from the first span, and
// each span's ID, parent and trace ID in its args.
func WriteChrome(w io.Writer, spans []Span) error {
	var t0 time.Time
	for i, s := range spans {
		if i == 0 || s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]chromeEvent, 0, len(spans))
	named := make(map[int]bool)
	for _, s := range spans {
		tid := s.Trace*lanesPerTrace + s.Lane
		if !named[tid] {
			named[tid] = true
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": fmt.Sprintf("op %d lane %d", s.Trace, s.Lane)}})
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tid,
			Ts: us(s.Start.Sub(t0)), Dur: us(s.dur()),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "trace": s.Trace},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
