// Package bench is the repository benchmark: four workloads that time
// the reproduction from outside — the paper-scale sweep cold and warm, an
// 8-node mesh pass over the four mesh backends, and open-loop tamsimd
// serving — plus a traced mode that attributes each operation's host
// time to the layers it calls. cmd/jmbench is its command line; README.md
// lists the workloads and metrics.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Workloads lists the benchmark's workloads in run order.
var Workloads = []string{"paper-cold", "paper-warm", "mesh-n8", "serve-open"}

// RunSeconds is the default length of a run's operation loop; it equals
// run_seconds in BENCHMARK.json.
const RunSeconds = 20

// setupReps is how many times each run sets its workload up; setup_s is
// the median.
const setupReps = 3

// Config selects one run of one workload.
type Config struct {
	Workload string
	Seed     int64
	// Seconds is how long the operation loop runs; operations that start
	// before it ends complete.
	Seconds float64
	// Trace makes the run report per-layer metrics instead of end-to-end
	// ones: every other operation is traced.
	Trace bool
	// Smoke shrinks the run to quick-scale inputs, one set-up and one
	// operation (two when traced), for tests.
	Smoke bool
	// Spans, when set in a traced run, receives the spans as Chrome
	// trace-event JSON.
	Spans string
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is a run's verdict and metrics, printed as the last line of
// standard output.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// session is one set-up instance of a workload.
type session interface {
	// run executes the workload's operations for cfg.Seconds, tracing
	// every other operation into tr when it is non-nil, and measures CPU
	// time with cal.
	run(ctx context.Context, cfg *Config, tr *Tracer, cal *calibrator) (*measured, error)
	close()
}

// measured is what a session's run reports.
type measured struct {
	// lat and latTraced hold operation latencies in ms, untraced and
	// traced; a failed operation is +Inf.
	lat, latTraced []float64
	// cpu holds the CPU time of each untraced operation in ms, scaled to
	// the reference speed; a failed operation is +Inf. A serve-open job is
	// charged an equal share of its stage's CPU time.
	cpu       []float64
	opsPerS   float64
	attempted int
	failed    int
	// layer holds workload-computed per-layer values (rates, ratios, the
	// probe), keyed by PerLayer name.
	layer map[string]float64
	// extra are reported on the human-readable lines only.
	extra []named
	// allocMB and gcs are Go runtime totals over the operation loop; gcs
	// leaves out the collections the harness forces between operations.
	allocMB, gcs float64
	// rss is the resident set in MiB: the mean over operations of each
	// operation's peak, or for serve-open the resident set at rest.
	rss float64
}

type named struct {
	name  string
	value float64
	unit  string
}

var setups = map[string]func(ctx context.Context, cfg *Config) (session, error){
	"paper-cold": setupCold,
	"paper-warm": setupWarm,
	"mesh-n8":    setupMesh,
	"serve-open": setupServe,
}

// Run sets the workload up, runs it, checks every output, and writes one
// "workload metric value unit" line per metric to w followed by the
// Result as a JSON line.
func Run(ctx context.Context, cfg *Config, w io.Writer) (*Result, error) {
	setup, ok := setups[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.Workload, Workloads)
	}
	reps := setupReps
	if cfg.Smoke {
		reps = 1
	}
	cal := startCalibrator()
	defer cal.close()
	var sess session
	var setupS []float64
	for i := 0; i < reps; i++ {
		if sess != nil {
			sess.close()
		}
		debug.FreeOSMemory()
		cpu := cal.meter()
		s, err := setup(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", cfg.Workload, err)
		}
		setupS = append(setupS, cpu.ms()/1000)
		sess = s
	}
	defer sess.close()
	debug.FreeOSMemory()

	var tr *Tracer
	if cfg.Trace {
		tr = &Tracer{}
	}
	m, err := sess.run(ctx, cfg, tr, cal)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	res := &Result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   make(map[string]Value),
	}
	var lines []named
	if cfg.Trace {
		lines = perLayer(m, tr.Spans())
		if cfg.Spans != "" {
			if err := writeSpans(cfg.Spans, tr.Spans()); err != nil {
				return nil, err
			}
		}
	} else {
		lines = []named{
			{"setup_s", Median(setupS), "s"},
			{"op_cpu_ms", Mean(m.cpu), "ms"},
			{"rss_mb", m.rss, "MiB"},
		}
	}
	for _, l := range lines {
		res.Metrics[l.name] = Value{Value: finite(l.value), Unit: l.unit}
	}
	calN, calMS := cal.samples()
	lines = append(lines,
		named{"cal.kernel_ms_p50", calMS, "ms"},
		named{"cal.samples", float64(calN), "count"},
		named{"op_samples", float64(len(m.lat)), "count"},
		named{"op_ms_p50", Median(m.lat), "ms"},
	)
	if t, ok := TailPercentile(m.lat); ok {
		lines = append(lines, named{fmt.Sprintf("op_ms_p%g", t.P), t.Value, "ms"})
	}
	lines = append(lines,
		named{"ops_per_s", m.opsPerS, "1/s"},
		named{"failed_ratio", float64(m.failed) / float64(max(m.attempted, 1)), "ratio"},
	)
	lines = append(lines, m.extra...)
	for _, l := range lines {
		fmt.Fprintf(w, "%s %s %s %s\n", cfg.Workload, l.name, formatValue(l.value), l.unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s\n", b)
	return res, nil
}

// perLayer assembles a traced run's per-layer metrics: span self-time
// shares, coverage and tracing overhead, plus the workload's own values.
func perLayer(m *measured, spans []Span) []named {
	self := SelfTimes(spans)
	var total time.Duration
	for _, d := range self {
		total += d
	}
	v := make(map[string]float64)
	for metric, span := range spanLayers {
		if total > 0 {
			v[metric] = 100 * float64(self[span]) / float64(total)
		}
	}
	v["trace.coverage_pct"] = 100 * Coverage(spans)
	if base := Median(m.lat); base > 0 && len(m.latTraced) > 0 {
		v["trace.overhead_pct"] = 100 * (Median(m.latTraced) - base) / base
	}
	ops := float64(max(m.attempted, 1))
	v["go.alloc_mb_per_op"] = m.allocMB / ops
	v["go.gc_per_op"] = m.gcs / ops
	for k, x := range m.layer {
		v[k] = x
	}
	out := make([]named, len(PerLayer))
	for i, d := range PerLayer {
		out[i] = named{d.Name, v[d.Name], d.Unit}
	}
	return out
}

// rate divides work by a span name's self time, in millions per second.
func rate(work float64, self map[string]time.Duration, span string) float64 {
	if s := self[span].Seconds(); s > 0 {
		return work / s / 1e6
	}
	return 0
}

// closedLoop runs op back to back, one caller, until cfg.Seconds have
// passed (at least once; twice when tracing, so both kinds are timed).
// With a tracer every other operation is traced. op returns a check that
// verifies the operation's output; it runs outside the timed interval.
// Every operation starts from a collected heap with free memory returned
// to the OS, so neither its time nor its peak resident set depends on
// where the previous operation left the collector.
func closedLoop(cfg *Config, tr *Tracer, cal *calibrator, op func(trace int, tr *Tracer) (check func() error, err error)) *measured {
	m := &measured{}
	minOps := 1
	if tr != nil {
		minOps = 2
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rss := startRSS()
	var ops [][2]time.Time
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for i := 0; i < minOps || (!cfg.Smoke && time.Now().Before(deadline)); i++ {
		var t *Tracer
		if i%2 == 1 {
			t = tr
		}
		debug.FreeOSMemory()
		meter := cal.meter()
		check, err := op(i, t)
		end, cpu := time.Now(), meter.ms()
		start := meter.start
		ops = append(ops, [2]time.Time{start, end})
		lat := millis(end.Sub(start))
		if err == nil {
			err = check()
		}
		m.attempted++
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: operation %d: %v\n", cfg.Workload, i, err)
			m.failed++
			lat, cpu = math.Inf(1), math.Inf(1)
		}
		if t != nil {
			m.latTraced = append(m.latTraced, lat)
		} else {
			m.lat = append(m.lat, lat)
			m.cpu = append(m.cpu, cpu)
		}
	}
	runtime.ReadMemStats(&after)
	m.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	m.gcs = float64((after.NumGC - after.NumForcedGC) - (before.NumGC - before.NumForcedGC))
	if med := Median(m.lat); med > 0 {
		m.opsPerS = 1000 / med
	}
	rss.close()
	m.rss = Mean(rss.peaks(ops))
	return m
}

// rssEvery is how often the resident set is sampled.
const rssEvery = 2 * time.Millisecond

// rssSampler records the process's resident set every rssEvery until
// stopped, so peaks can be taken over any interval afterwards.
type rssSampler struct {
	mu   sync.Mutex
	at   []time.Time
	mib  []float64
	stop chan struct{}
	done chan struct{}
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if mib, err := residentMiB(); err == nil {
				s.mu.Lock()
				s.at = append(s.at, time.Now())
				s.mib = append(s.mib, mib)
				s.mu.Unlock()
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// close stops sampling and waits for the sampler to exit.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// peaks returns the highest sample in each interval [from, to).
func (s *rssSampler) peaks(intervals [][2]time.Time) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, len(intervals))
	for i, iv := range intervals {
		for j, t := range s.at {
			if !t.Before(iv[0]) && t.Before(iv[1]) && s.mib[j] > out[i] {
				out[i] = s.mib[j]
			}
		}
	}
	return out
}

// residentMiB reads the process's resident set from /proc/self/statm.
func residentMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// finite keeps a JSON-encodable value: a latency of +Inf (every
// operation failed) is reported as the largest float64.
func finite(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return 0
	case math.IsInf(x, 1):
		return math.MaxFloat64
	case math.IsInf(x, -1):
		return -math.MaxFloat64
	}
	return x
}

func formatValue(x float64) string {
	if math.IsInf(x, 1) {
		return "+Inf"
	}
	return fmt.Sprint(x)
}

func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChrome(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
