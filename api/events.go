package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Every line a job streams (POST /v1/runs, POST /v1/sweeps, and
// GET ...?stream=1 replays) is the JSON encoding of exactly one of the
// *Event structs below, discriminated by its "type" field. Streams
// always open with EventAccepted and close with exactly one terminal
// line: EventResult, EventError or EventCanceled. Everything in
// between is progress; its ordering under concurrency is
// nondeterministic and never affects the final result document.
const (
	EventAccepted  = "accepted"  // job registered; first line of every stream
	EventStarted   = "started"   // job acquired a worker slot
	EventSimulated = "simulated" // run jobs: simulation finished, replay begins
	EventGeometry  = "geometry"  // run jobs: one cache geometry replayed
	EventRun       = "run"       // sweep jobs: one (workload, impl) unit finished
	EventShard     = "shard"     // sweep jobs: coordinator lease/retry/requeue activity
	EventCached    = "cached"    // result served from the fleet result cache
	EventResult    = "result"    // terminal: the final result document
	EventError     = "error"     // terminal: the job failed
	EventCanceled  = "canceled"  // terminal: the job was canceled
)

// AcceptedEvent opens every job stream.
type AcceptedEvent struct {
	Type string `json:"type"`
	ID   string `json:"id"`
	Kind string `json:"kind"`
}

// Accepted returns the stream-opening event for a job.
func Accepted(id, kind string) AcceptedEvent {
	return AcceptedEvent{Type: EventAccepted, ID: id, Kind: kind}
}

// StartedEvent reports the job leaving the queue; QueueMS is the time
// it waited for a worker slot.
type StartedEvent struct {
	Type    string `json:"type"`
	ID      string `json:"id"`
	QueueMS int64  `json:"queue_ms"`
}

// Started returns the queue-departure event for a job.
func Started(id string, queueMS int64) StartedEvent {
	return StartedEvent{Type: EventStarted, ID: id, QueueMS: queueMS}
}

// SimulatedEvent reports a run job's simulation phase finishing.
// CacheHit says the compiled artifact came from the code cache.
type SimulatedEvent struct {
	Type         string `json:"type"`
	ID           string `json:"id"`
	Instructions uint64 `json:"instructions"`
	CacheHit     bool   `json:"cache_hit"`
}

// Simulated returns a run job's simulation-complete event.
func Simulated(id string, instructions uint64, cacheHit bool) SimulatedEvent {
	return SimulatedEvent{Type: EventSimulated, ID: id, Instructions: instructions, CacheHit: cacheHit}
}

// GeometryEvent reports one cache geometry's replay within a run job.
// Index is the geometry's position in the request's caches list.
type GeometryEvent struct {
	Type       string    `json:"type"`
	ID         string    `json:"id"`
	Index      int       `json:"index"`
	Cache      CacheSpec `json:"cache"`
	IMisses    uint64    `json:"i_misses"`
	DMisses    uint64    `json:"d_misses"`
	Writebacks uint64    `json:"writebacks"`
}

// RunProgressEvent reports one completed (workload, impl) unit within a
// sweep job. Source, when present, says where the unit's recording came
// from: "local", "peer", "recorded", or "checkpoint" (restored from a
// journaled unit checkpoint after a restart, not re-run).
type RunProgressEvent struct {
	Type    string `json:"type"`
	ID      string `json:"id"`
	Done    int    `json:"done"`
	Total   int    `json:"total"`
	Program string `json:"program"`
	Arg     int    `json:"arg"`
	Impl    string `json:"impl"`
	Source  string `json:"source,omitempty"`
}

// ShardEvent relays one coordinator lifecycle notification on a
// distributed sweep's stream: Event is the coordinator's event kind
// ("register", "lease", "retry", "requeue", "hedge", "breaker-open",
// "local", "done"), Shard the unit index (-1 for worker-level events).
type ShardEvent struct {
	Type    string `json:"type"`
	ID      string `json:"id"`
	Event   string `json:"event"`
	Shard   int    `json:"shard"`
	Worker  string `json:"worker"`
	Attempt int    `json:"attempt"`
	Error   string `json:"error,omitempty"`
}

// CachedEvent reports that the job's result was served from the fleet
// result cache instead of fresh execution. Source is "local", "peer",
// or "coalesced" (a concurrent identical job executed it); Key is the
// result's content address.
type CachedEvent struct {
	Type   string `json:"type"`
	ID     string `json:"id"`
	Source string `json:"source"`
	Key    string `json:"key"`
}

// Cached returns a result-cache-hit event.
func Cached(id, source, key string) CachedEvent {
	return CachedEvent{Type: EventCached, ID: id, Source: source, Key: key}
}

// ResultEvent is the successful terminal line: Result is the job's
// final document (RunResult or SweepResult).
type ResultEvent struct {
	Type   string          `json:"type"`
	ID     string          `json:"id"`
	Result json.RawMessage `json:"result"`
}

// Result returns the successful terminal event for a job.
func Result(id string, result json.RawMessage) ResultEvent {
	return ResultEvent{Type: EventResult, ID: id, Result: result}
}

// FailureEvent is a terminal error or cancellation line (Type is
// EventError or EventCanceled).
type FailureEvent struct {
	Type  string `json:"type"`
	ID    string `json:"id"`
	Error string `json:"error"`
}

// Failure returns a terminal failure event of the given type.
func Failure(typ, id, errMsg string) FailureEvent {
	return FailureEvent{Type: typ, ID: id, Error: errMsg}
}

// Event is the decode-side union of every stream line: unmarshal any
// NDJSON line into it and branch on Type. Fields outside the line's
// own set stay zero.
type Event struct {
	Type string `json:"type"`
	ID   string `json:"id"`

	Kind         string          `json:"kind"`         // accepted
	QueueMS      int64           `json:"queue_ms"`     // started
	Instructions uint64          `json:"instructions"` // simulated
	CacheHit     bool            `json:"cache_hit"`    // simulated
	Index        int             `json:"index"`        // geometry
	Cache        *CacheSpec      `json:"cache"`        // geometry
	IMisses      uint64          `json:"i_misses"`     // geometry
	DMisses      uint64          `json:"d_misses"`     // geometry
	Writebacks   uint64          `json:"writebacks"`   // geometry
	Done         int             `json:"done"`         // run
	Total        int             `json:"total"`        // run
	Program      string          `json:"program"`      // run
	Arg          int             `json:"arg"`          // run
	Impl         string          `json:"impl"`         // run
	Source       string          `json:"source"`       // run, cached
	Key          string          `json:"key"`          // cached
	Event        string          `json:"event"`        // shard
	Shard        int             `json:"shard"`        // shard
	Worker       string          `json:"worker"`       // shard
	Attempt      int             `json:"attempt"`      // shard
	Error        string          `json:"error"`        // shard, error, canceled
	Result       json.RawMessage `json:"result"`       // result
}

// Terminal reports whether the event ends its job's stream.
func (e *Event) Terminal() bool {
	return e.Type == EventResult || e.Type == EventError || e.Type == EventCanceled
}

// ReadStream decodes a job's NDJSON event stream from r to its end,
// calling fn (may be nil) with each event and its raw line, which is
// valid only during the call, and returns the last event. Blank lines
// are skipped; a line that does not decode, or one longer than 64 MiB,
// is an error, as is a failed read.
func ReadStream(r io.Reader, fn func(ev Event, line []byte)) (last Event, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return last, fmt.Errorf("bad stream line %.80q: %w", line, err)
		}
		if fn != nil {
			fn(ev, line)
		}
		last = ev
	}
	return last, sc.Err()
}
