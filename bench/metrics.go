package bench

// MetricDef is one metric the benchmark reports. The tables below mirror
// BENCHMARK.json at the repository root; a test keeps the two equal.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// EndToEnd lists the metrics every untraced run reports, on every
// workload, with the share by which each may worsen before a change
// counts as a regression.
//
// Times are process CPU times scaled to the reference speed (see
// calibrate.go): wall times on the shared 2-vCPU host these were measured
// on spread by up to 49% between runs of the same code, beyond any bound
// a regression gate can use. Wall times are still printed on the text
// lines.
var EndToEnd = []MetricDef{
	// CPU seconds of one set-up, the median of three per run.
	{"setup_s", "s", "lower", 0.25},
	// Mean CPU time of one operation: a sweep, a node-ratio pass, or for
	// serve-open one job at the fixed rates. Ten runs spread by up to 8%
	// on a quiet host; the bound leaves room for a busier one.
	{"op_cpu_ms", "ms", "lower", 0.25},
	// Resident set: the mean over operations of each operation's peak for
	// the closed-loop workloads, the daemon's resident set at rest after
	// the fixed-rate stages for serve-open. A single operation's peak
	// follows the collector's pacing and moves by ±7% from one operation
	// to the next, and serve-open's resident set follows its seeded
	// traffic, so ten runs spread by up to 9%.
	{"rss_mb", "MiB", "lower", 0.25},
}

// PerLayer lists the metrics every traced run reports, on every
// workload. A layer a workload does not run reads 0 there.
var PerLayer = []MetricDef{
	// Self time of each layer's spans as a share of all traced time.
	{"record.self_pct", "%", "lower", 0},
	{"mesh.self_pct", "%", "lower", 0},
	{"replay.self_pct", "%", "lower", 0},
	{"derive.self_pct", "%", "lower", 0},
	{"loadgen.wait.self_pct", "%", "lower", 0},
	{"server.admit.self_pct", "%", "lower", 0},
	{"server.queue.self_pct", "%", "lower", 0},
	{"server.units.self_pct", "%", "lower", 0},
	{"results.self_pct", "%", "lower", 0},
	{"server.tail.self_pct", "%", "lower", 0},
	// Layer throughput on the operation path.
	{"record.minstr_per_s", "Minstr/s", "higher", 0},
	{"mesh.minstr_per_s", "Minstr/s", "higher", 0},
	{"mesh.mticks_per_s", "Mticks/s", "higher", 0},
	{"replay.mref_geoms_per_s", "Mref/s", "higher", 0},
	// The layer probe, run once per traced run on the workload's own
	// programs and recordings.
	{"compile.us_p50", "us", "lower", 0},
	{"compact.mb_per_s", "MB/s", "higher", 0},
	{"compact.ratio", "ratio", "lower", 0},
	{"decode.mb_per_s", "MB/s", "higher", 0},
	{"store.put_ms_p50", "ms", "lower", 0},
	{"store.get_us_p50", "us", "lower", 0},
	{"replay_stream.mref_geoms_per_s", "Mref/s", "higher", 0},
	// Useful outcomes over attempts, from stream events and /metricz.
	{"server.compile_hit_ratio", "ratio", "higher", 0},
	{"results.hit_ratio", "ratio", "higher", 0},
	{"store.hit_ratio", "ratio", "higher", 0},
	// Go runtime, per operation.
	{"go.alloc_mb_per_op", "MB", "lower", 0},
	{"go.gc_per_op", "count", "lower", 0},
	// Harness health and tracing cost.
	{"loadgen.late_pct", "%", "lower", 0},
	{"trace.coverage_pct", "%", "higher", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// spanLayers maps each self-share metric to its span name.
var spanLayers = map[string]string{
	"record.self_pct":       "record",
	"mesh.self_pct":         "mesh",
	"replay.self_pct":       "replay",
	"derive.self_pct":       "derive",
	"loadgen.wait.self_pct": "loadgen.wait",
	"server.admit.self_pct": "server.admit",
	"server.queue.self_pct": "server.queue",
	"server.units.self_pct": "server.units",
	"results.self_pct":      "results",
	"server.tail.self_pct":  "server.tail",
}
