package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	cases := []struct {
		p    float64
		want float64
	}{
		{50, 30},
		{99, 50},
		{100, 50},
		{1, 10},
	}
	for _, c := range cases {
		if got := percentile(samples, c.p); got != c.want {
			t.Errorf("percentile(%v) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
	if samples[0] != 50 {
		t.Error("percentile sorted the caller's slice")
	}
}

// TestScrapeServerReadsRegistryOutput serves a /metricz document in
// the exact shape obs.Registry.WriteJSON emits and checks the summary
// loadgen distills from it. A histogram it lacks reads as no samples.
func TestScrapeServerReadsRegistryOutput(t *testing.T) {
	doc := `{
  "counters": {
    "results.hits": 3,
    "results.served": 2
  },
  "gauges": {
    "tenant.alice.running": {"value": 1, "min": 0, "max": 4}
  },
  "histograms": {
    "job.latency.ms.run": {"count": 2, "sum": 30, "min": 10, "max": 20, "mean": 15.000, "buckets": [{"lo": 8, "hi": 15, "count": 1}, {"lo": 16, "hi": 31, "count": 1}]}
  }
}
`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metricz" {
			http.NotFound(w, r)
			return
		}
		io.WriteString(w, doc)
	}))
	defer ts.Close()
	// p99 is the top bucket's bound, 31, clamped to the recorded max.
	want := serverSummary{ResultsServed: 2, ResultsHits: 3, RunP50Ms: 15, RunP99Ms: 20}
	if got := scrapeServer(ts.URL); got != want {
		t.Errorf("summary = %+v, want %+v", got, want)
	}
}

func TestParseTenants(t *testing.T) {
	specs, err := parseTenants("alice:key-a:4, bob:key-b:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0] != (tenantSpec{"alice", "key-a", 4}) || specs[1] != (tenantSpec{"bob", "key-b", 1}) {
		t.Errorf("specs = %+v", specs)
	}
	if specs, err = parseTenants("local::2"); err != nil || specs[0].key != "" {
		t.Errorf("empty key: specs=%+v err=%v", specs, err)
	}
	for _, bad := range []string{"", "a:b", "a:b:0", "a:b:x"} {
		if _, err := parseTenants(bad); err == nil {
			t.Errorf("parseTenants(%q) accepted", bad)
		}
	}
}
