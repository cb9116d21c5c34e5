package faultnet

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// roundTrip issues one GET through the transport against ts.
func roundTrip(t *testing.T, tr *Transport, url string) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr.RoundTrip(req)
}

func TestTransportZeroPlanPassesThrough(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "hello")
	}))
	defer ts.Close()
	tr := NewTransport(nil, Plan{})
	for i := 0; i < 10; i++ {
		resp, err := roundTrip(t, tr, ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || string(b) != "hello" {
			t.Fatalf("body = %q, err = %v", b, err)
		}
	}
	trips, faults := tr.Counts()
	if trips != 10 || faults != 0 {
		t.Errorf("trips/faults = %d/%d, want 10/0", trips, faults)
	}
}

// TestTransportDeterministicSchedule draws the same seed twice and
// checks the injected fault sequence is identical.
func TestTransportDeterministicSchedule(t *testing.T) {
	plan := Plan{Seed: 42, Drop: 0.3, Err5xx: 0.3, Disconnect: 0.2}
	sequence := func() []string {
		var kinds []string
		tr := NewTransport(nil, plan)
		tr.OnFault = func(kind string, _ *http.Request) { kinds = append(kinds, kind) }
		for i := 0; i < 50; i++ {
			req, _ := http.NewRequest(http.MethodGet, "http://unreachable.invalid/", nil)
			kind, _ := tr.decide(req)
			_ = kind
		}
		return kinds
	}
	a, b := sequence(), sequence()
	if len(a) == 0 {
		t.Fatal("no faults injected at 30% rates over 50 requests")
	}
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("fault schedules differ for the same seed:\n%v\n%v", a, b)
	}
}

func TestTransportDrop(t *testing.T) {
	tr := NewTransport(nil, Plan{Drop: 1})
	_, err := roundTrip(t, tr, "http://127.0.0.1:1/") // never dialed
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

func TestTransport5xx(t *testing.T) {
	called := false
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		called = true
	}))
	defer ts.Close()
	tr := NewTransport(nil, Plan{Err5xx: 1})
	resp, err := roundTrip(t, tr, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if called {
		t.Error("synthesized 5xx still reached the server")
	}
}

func TestTransportDisconnectMidStream(t *testing.T) {
	big := strings.Repeat("x", 1<<16)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, big)
	}))
	defer ts.Close()
	tr := NewTransport(nil, Plan{Disconnect: 1})
	resp, err := roundTrip(t, tr, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("read err = %v, want ErrInjected", err)
	}
	if len(b) == 0 || len(b) >= len(big) {
		t.Errorf("read %d bytes before disconnect, want a strict prefix", len(b))
	}
}

func TestTransportSpike(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer ts.Close()
	tr := NewTransport(nil, Plan{SpikeProb: 1, Spike: 30 * time.Millisecond})
	start := time.Now()
	resp, err := roundTrip(t, tr, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("round trip took %v, want >= 30ms spike", d)
	}
}
