package api

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestEventRoundTrip marshals every typed event and decodes it through
// the union: the discriminator and every payload field must survive.
func TestEventRoundTrip(t *testing.T) {
	cases := []struct {
		event any
		check func(t *testing.T, e Event)
	}{
		{Accepted("r-000001", "run"), func(t *testing.T, e Event) {
			if e.Type != EventAccepted || e.ID != "r-000001" || e.Kind != "run" {
				t.Errorf("accepted = %+v", e)
			}
		}},
		{Started("r-000001", 42), func(t *testing.T, e Event) {
			if e.Type != EventStarted || e.QueueMS != 42 {
				t.Errorf("started = %+v", e)
			}
		}},
		{Simulated("r-000001", 123456, true), func(t *testing.T, e Event) {
			if e.Type != EventSimulated || e.Instructions != 123456 || !e.CacheHit {
				t.Errorf("simulated = %+v", e)
			}
		}},
		{GeometryEvent{Type: EventGeometry, ID: "r-000001", Index: 0,
			Cache:   CacheSpec{SizeKB: 8, BlockBytes: 64, Assoc: 4},
			IMisses: 7, DMisses: 9, Writebacks: 3}, func(t *testing.T, e Event) {
			if e.Type != EventGeometry || e.Index != 0 || e.Cache == nil ||
				e.Cache.SizeKB != 8 || e.IMisses != 7 || e.DMisses != 9 || e.Writebacks != 3 {
				t.Errorf("geometry = %+v", e)
			}
		}},
		{RunProgressEvent{Type: EventRun, ID: "s-000002", Done: 1, Total: 4,
			Program: "ss", Arg: 40, Impl: "MD", Source: "peer"}, func(t *testing.T, e Event) {
			if e.Type != EventRun || e.Done != 1 || e.Total != 4 || e.Program != "ss" ||
				e.Arg != 40 || e.Impl != "MD" || e.Source != "peer" {
				t.Errorf("run = %+v", e)
			}
		}},
		{ShardEvent{Type: EventShard, ID: "s-000002", Event: "lease", Shard: 3,
			Worker: "http://w1", Attempt: 2, Error: "boom"}, func(t *testing.T, e Event) {
			if e.Type != EventShard || e.Event != "lease" || e.Shard != 3 ||
				e.Worker != "http://w1" || e.Attempt != 2 || e.Error != "boom" {
				t.Errorf("shard = %+v", e)
			}
		}},
		{Cached("s-000002", "local", "abc123"), func(t *testing.T, e Event) {
			if e.Type != EventCached || e.Source != "local" || e.Key != "abc123" {
				t.Errorf("cached = %+v", e)
			}
		}},
		{Result("r-000001", json.RawMessage(`{"x":1}`)), func(t *testing.T, e Event) {
			if e.Type != EventResult || string(e.Result) != `{"x":1}` || !e.Terminal() {
				t.Errorf("result = %+v", e)
			}
		}},
		{Failure(EventError, "r-000001", "bad"), func(t *testing.T, e Event) {
			if e.Type != EventError || e.Error != "bad" || !e.Terminal() {
				t.Errorf("error = %+v", e)
			}
		}},
		{Failure(EventCanceled, "r-000001", "client went away"), func(t *testing.T, e Event) {
			if e.Type != EventCanceled || !e.Terminal() {
				t.Errorf("canceled = %+v", e)
			}
		}},
	}
	for _, c := range cases {
		b, err := json.Marshal(c.event)
		if err != nil {
			t.Fatal(err)
		}
		var e Event
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatalf("decode %s: %v", b, err)
		}
		c.check(t, e)
	}
}

// TestGeometryIndexZeroSurvives guards against an omitempty regression:
// the first geometry's index is 0 and must still appear on the wire.
func TestGeometryIndexZeroSurvives(t *testing.T) {
	b, _ := json.Marshal(GeometryEvent{Type: EventGeometry, ID: "r-1"})
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["index"]; !ok {
		t.Fatalf("geometry event dropped index 0: %s", b)
	}
}

// TestErrorEnvelope round-trips the structured envelope and checks the
// synthesized fallback for plain-text bodies.
func TestErrorEnvelope(t *testing.T) {
	env := ErrorEnvelope{Error: NewError(CodeQuotaExhausted, "tenant bob over quota")}
	b, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	got := DecodeError(429, b)
	if got.Code != CodeQuotaExhausted || !got.Retryable || got.Status != 429 {
		t.Fatalf("decoded envelope = %+v", got)
	}
	if got.Error() != "quota_exhausted: tenant bob over quota" {
		t.Fatalf("Error() = %q", got.Error())
	}

	// Foreign daemon: plain text body, classify by status.
	for _, c := range []struct {
		status    int
		code      ErrorCode
		retryable bool
	}{
		{400, CodeBadRequest, false},
		{401, CodeUnauthorized, false},
		{404, CodeNotFound, false},
		{413, CodeTooLarge, false},
		{429, CodeQuotaExhausted, true},
		{500, CodeInternal, true},
		{503, CodeUnavailable, true},
	} {
		e := DecodeError(c.status, []byte("plain text"))
		if e.Code != c.code || e.Retryable != c.retryable {
			t.Errorf("status %d: code %q retryable %v, want %q %v",
				c.status, e.Code, e.Retryable, c.code, c.retryable)
		}
	}
	if e := DecodeError(500, nil); e.Message != "HTTP 500" {
		t.Errorf("empty body message = %q", e.Message)
	}
}

// TestRetryableDerivation: NewError must agree with the code table.
func TestRetryableDerivation(t *testing.T) {
	for code, want := range map[ErrorCode]bool{
		CodeBadRequest: false, CodeUnauthorized: false, CodeNotFound: false,
		CodeTooLarge: false, CodeQuotaExhausted: true, CodeUnavailable: true,
		CodeInternal: true,
	} {
		if got := NewError(code, "x").Retryable; got != want {
			t.Errorf("NewError(%q).Retryable = %v, want %v", code, got, want)
		}
	}
}

// TestRequestSparseness: a minimal request marshals without noise, so
// journaled normalized requests stay compact and stable.
func TestRequestSparseness(t *testing.T) {
	b, _ := json.Marshal(RunRequest{Program: "ss"})
	if string(b) != `{"program":"ss"}` {
		t.Errorf("sparse run request = %s", b)
	}
	var rt SweepRequest
	full := SweepRequest{
		Scale:     "quick",
		Workloads: []WorkloadSpec{{Program: "ss", Arg: 40}},
		SizesKB:   []int{1, 8}, Assocs: []int{1, 4}, BlockBytes: 64,
		Penalties: []int{12, 24, 48}, Impls: []string{"md", "am"}, Detail: true,
	}
	b, _ = json.Marshal(full)
	if err := json.Unmarshal(b, &rt); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, rt) {
		t.Errorf("sweep request did not round-trip:\n%+v\n%+v", full, rt)
	}
}

// TestJobStatusTenantOmitted: statuses from a daemon without tenancy
// must not grow a tenant field.
func TestJobStatusTenantOmitted(t *testing.T) {
	b, _ := json.Marshal(JobStatus{ID: "r-1", Kind: "run", State: StateDone})
	var m map[string]any
	json.Unmarshal(b, &m)
	if _, ok := m["tenant"]; ok {
		t.Fatalf("anonymous status leaked a tenant field: %s", b)
	}
}

// TestReadStream: blank lines are skipped, every event reaches the
// callback in order, the last one comes back, and a line that does not
// decode is an error.
func TestReadStream(t *testing.T) {
	stream := "{\"type\":\"accepted\",\"id\":\"s-1\"}\n\n  \n{\"type\":\"run\",\"done\":1}\n{\"type\":\"result\",\"result\":{\"x\":1}}\n"
	var types []string
	last, err := ReadStream(strings.NewReader(stream), func(ev Event, line []byte) {
		types = append(types, ev.Type)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{EventAccepted, EventRun, EventResult}; !reflect.DeepEqual(types, want) {
		t.Fatalf("events = %v, want %v", types, want)
	}
	if last.Type != EventResult || string(last.Result) != `{"x":1}` {
		t.Fatalf("last = %+v", last)
	}
	last, err = ReadStream(strings.NewReader("{\"type\":\"accepted\"}\n{\"type\":\"res"), nil)
	if err == nil || last.Type != EventAccepted {
		t.Fatalf("torn line: last = %+v, err = %v; want the accepted event and an error", last, err)
	}
}
