package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchmarkSpec is BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []MetricDef `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
}

func loadSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, Workloads) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, Workloads)
	}
	if !reflect.DeepEqual(s.EndToEnd, EndToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v, harness %+v", s.EndToEnd, EndToEnd)
	}
	if !reflect.DeepEqual(s.PerLayer, PerLayer) {
		t.Errorf("BENCHMARK.json per_layer %+v, harness %+v", s.PerLayer, PerLayer)
	}
	if s.RunSeconds != RunSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, harness %d", s.RunSeconds, RunSeconds)
	}
}

// TestSmoke runs every workload for one operation at quick scale,
// untraced and traced, and checks the printed metrics, the result line
// and the Chrome trace.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range Workloads {
		for _, traced := range []bool{false, true} {
			cfg := &Config{Workload: w, Seed: 3, Seconds: 0.6, Smoke: true, Trace: traced}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
				cfg.Spans = filepath.Join(t.TempDir(), "spans.json")
			}
			var out bytes.Buffer
			res, err := Run(context.Background(), cfg, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			checkOutput(t, w, out.String(), want)
			if traced {
				checkChromeTrace(t, w, cfg.Spans)
			}
		}
	}
}

// checkOutput asserts that every wanted metric is printed as
// "workload metric value unit" and that the last line is the result
// with exactly those metrics.
func checkOutput(t *testing.T, workload, out string, want []MetricDef) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	printed := make(map[string]string)
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) != 4 || f[0] != workload {
			t.Errorf("%s: malformed metric line %q", workload, l)
			continue
		}
		printed[f[1]] = f[3]
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", workload, err)
	}
	var keys []string
	for k := range res {
		keys = append(keys, k)
	}
	if len(keys) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Errorf("%s: result keys %v, want correct, attempted, failed, metrics", workload, keys)
	}
	var metrics map[string]Value
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(want) {
		t.Errorf("%s: %d metrics in the result, want %d", workload, len(metrics), len(want))
	}
	for _, d := range want {
		if printed[d.Name] != d.Unit {
			t.Errorf("%s: metric %s printed with unit %q, want %q", workload, d.Name, printed[d.Name], d.Unit)
		}
		if v, ok := metrics[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("%s: metric %s in the result as %+v", workload, d.Name, v)
		}
	}
}

// checkChromeTrace parses a span file and asserts that every span lies
// within its parent and that spans sharing a thread nest.
func checkChromeTrace(t *testing.T, workload, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
			Args struct {
				ID     int `json:"id"`
				Parent int `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("%s: trace does not parse: %v", workload, err)
	}
	type iv struct {
		lo, hi float64
		tid    int
	}
	spans := make(map[int]iv)
	parents := make(map[int]int)
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans[e.Args.ID] = iv{e.Ts, e.Ts + e.Dur, e.Tid}
			parents[e.Args.ID] = e.Args.Parent
		}
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", workload)
	}
	const slack = 1e-3 // µs: float rounding of the timestamps
	for id, p := range parents {
		if p == 0 {
			continue
		}
		c := spans[id]
		par, ok := spans[p]
		if !ok || c.lo < par.lo-slack || c.hi > par.hi+slack {
			t.Errorf("%s: span %d [%v, %v] is outside its parent %d [%v, %v]", workload, id, c.lo, c.hi, p, par.lo, par.hi)
		}
	}
	for a, x := range spans {
		for b, y := range spans {
			if a >= b || x.tid != y.tid {
				continue
			}
			overlap := x.lo < y.hi-slack && y.lo < x.hi-slack
			nested := (x.lo >= y.lo-slack && x.hi <= y.hi+slack) || (y.lo >= x.lo-slack && y.hi <= x.hi+slack)
			if overlap && !nested {
				t.Errorf("%s: spans %d and %d overlap on thread %d without nesting", workload, a, b, x.tid)
			}
		}
	}
}
