package obs

import "io"

// Track ids within a node's timeline. Handler and inlet spans on a given
// track are sequential (a span's end may coincide with the next span's
// start but they never partially overlap), so each track renders as a
// flat lane in Perfetto.
const (
	TrackLow    = 0 // priority-0 handler spans + priority-switch instants
	TrackHigh   = 1 // priority-1 handler spans
	TrackQuanta = 2 // TAM quantum spans
	TrackInlets = 3 // inlet entry -> exit spans
	TrackNet    = 4 // network message-in-flight spans (netsim runs)
)

// Sink bundles the two observability surfaces. Producers hold a *Sink
// that is nil when instrumentation is disabled; Events may additionally
// be nil for metrics-only collection (the cheap mode parallel sweeps
// use).
type Sink struct {
	Metrics *Registry
	Events  *EventBuffer
}

// Option configures a Sink at construction.
type Option func(*Sink)

// WithEvents attaches an in-memory timeline event buffer to the sink.
func WithEvents() Option {
	return func(s *Sink) { s.ensureEvents() }
}

// WithEventCap attaches an event buffer that retains (or, in streaming
// mode, emits) at most n timeline events; later events are dropped and
// counted (EventBuffer.Dropped). The cap bounds memory on paper-scale
// runs whose full timelines would not fit.
func WithEventCap(n int) Option {
	return func(s *Sink) { s.ensureEvents().SetCap(n) }
}

// WithEventWriter attaches an event buffer in streaming mode: instead
// of accumulating the timeline in memory, every event is serialised to
// w as it is emitted (Chrome trace-event JSON, the same format
// WriteJSON produces), so arbitrarily long runs trace in bounded
// memory. Call EventBuffer.Finish after the run to terminate the JSON
// document. Composes with WithEventCap.
func WithEventWriter(w io.Writer) Option {
	return func(s *Sink) { s.ensureEvents().SetWriter(w) }
}

// New returns a sink with a fresh metrics registry, configured by the
// given options; with no options the sink is metrics-only.
func New(opts ...Option) *Sink {
	s := &Sink{Metrics: NewRegistry()}
	for _, o := range opts {
		o(s)
	}
	return s
}

// ensureEvents attaches an event buffer if the sink lacks one.
func (s *Sink) ensureEvents() *EventBuffer {
	if s.Events == nil {
		s.Events = NewEventBuffer()
	}
	return s.Events
}
