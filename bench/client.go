package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"jmtam/api"
	"jmtam/internal/server"
)

// daemon is an in-process tamsimd behind a loopback HTTP listener, with
// a client limited to serveConns connections.
type daemon struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

// serveConns bounds the benchmark's connections to the daemon.
const serveConns = 2

func startDaemon() (*daemon, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}
	return &daemon{srv: srv, ts: ts, client: &http.Client{Transport: tr}}, nil
}

func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.ts.Close()
	d.srv.Close()
}

// event is one NDJSON stream line and when the client received it.
type event struct {
	api.Event
	at time.Time
}

// stream is one job as the client saw it: when the request was sent and
// every event of its stream, ending with the terminal one.
type stream struct {
	sent   time.Time
	events []event
}

func (s *stream) terminal() event { return s.events[len(s.events)-1] }

// event returns the first event of type typ.
func (s *stream) event(typ string) (event, bool) {
	for _, e := range s.events {
		if e.Type == typ {
			return e, true
		}
	}
	return event{}, false
}

// at returns when the first event of type typ arrived.
func (s *stream) at(typ string) (time.Time, bool) {
	e, ok := s.event(typ)
	return e.at, ok
}

// lastAt returns when the last event of type typ arrived.
func (s *stream) lastAt(typ string) (time.Time, bool) {
	for i := len(s.events) - 1; i >= 0; i-- {
		if s.events[i].Type == typ {
			return s.events[i].at, true
		}
	}
	return time.Time{}, false
}

// submit POSTs a job and reads its NDJSON stream to the terminal event.
// A refused request, a failed or canceled job, or a stream without a
// terminal event is an error.
func (d *daemon) submit(ctx context.Context, path string, req any) (*stream, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, d.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	s := &stream{sent: time.Now()}
	resp, err := d.client.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("%s refused: %v", path, api.DecodeError(resp.StatusCode, msg))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		e := event{at: time.Now()}
		if err := json.Unmarshal(sc.Bytes(), &e.Event); err != nil {
			return nil, fmt.Errorf("bad stream line: %w", err)
		}
		s.events = append(s.events, e)
		if e.Terminal() {
			if e.Type != api.EventResult {
				return nil, fmt.Errorf("job %s: %s: %s", e.ID, e.Type, e.Error)
			}
			return s, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("%s: stream ended without a terminal event", path)
}

// counters reads the daemon's /metricz counters.
func (d *daemon) counters(ctx context.Context) (map[string]uint64, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, d.ts.URL+"/metricz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("/metricz: %w", err)
	}
	return doc.Counters, nil
}

// hitRatio is hits / (hits + misses) of a counter prefix between two
// /metricz reads.
func hitRatio(before, after map[string]uint64, prefix string) float64 {
	h := after[prefix+".hits"] - before[prefix+".hits"]
	m := after[prefix+".misses"] - before[prefix+".misses"]
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// fetch GETs a path and returns the body.
func (d *daemon) fetch(ctx context.Context, path string) ([]byte, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, d.ts.URL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %v", path, api.DecodeError(resp.StatusCode, b))
	}
	return b, nil
}

// stageSpans records a job's server-side stages as spans reconstructed
// from its stream: admission (sent → accepted), queueing (accepted →
// started), then the given execution stages, each ending at its event,
// and the tail from the last of them to the terminal event. Stages whose
// event is absent are skipped.
func stageSpans(tr *Tracer, s *stream, op, root int, exec []stage) {
	add := func(name string, from, to time.Time) {
		tr.Add(Span{Name: name, Parent: root, Trace: op, Start: from, End: to})
	}
	acc, _ := s.at(api.EventAccepted)
	started, _ := s.at(api.EventStarted)
	add("server.admit", s.sent, acc)
	add("server.queue", acc, started)
	from := started
	for _, st := range exec {
		to, ok := s.at(st.event)
		if st.last {
			to, ok = s.lastAt(st.event)
		}
		if ok {
			add(st.name, from, to)
			from = to
		}
	}
	add("server.tail", from, s.terminal().at)
}

// stage names an execution stage by the event that ends it: the first
// event of that type, or with last the last one.
type stage struct {
	name, event string
	last        bool
}
