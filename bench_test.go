package jmtam

// One benchmark per evaluation artifact of the paper. Each bench
// regenerates its table or figure end-to-end (simulation + cache fan-out
// + derivation) over the reduced "quick" workloads so the full suite
// completes in seconds; run the cmd/experiments binary with -scale paper
// for the paper-size runs recorded in EXPERIMENTS.md.

import (
	"testing"

	"jmtam/internal/core"
	"jmtam/internal/experiments"
)

// benchSweep executes the standard sweep once and reports a headline
// metric so regressions in the result (not just the runtime) are
// visible.
func benchSweep(b *testing.B, metric func(d *experiments.Dataset) float64, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		ds, err := experiments.DefaultSweep(experiments.QuickWorkloads()).Execute()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(metric(ds), name)
	}
}

// BenchmarkTable2 regenerates Table 2 and reports the geometric-mean
// MD/AM cycle ratio at the paper's headline configuration (8K 4-way,
// miss 24).
func BenchmarkTable2(b *testing.B) {
	benchSweep(b, func(d *experiments.Dataset) float64 {
		rows := experiments.Table2(d)
		if len(rows) != 6 {
			b.Fatalf("Table 2 has %d rows", len(rows))
		}
		return d.GeoMeanRatio(8, 4, 24)
	}, "geomean-ratio")
}

// BenchmarkFigure3 regenerates the geometric-mean ratio curves.
func BenchmarkFigure3(b *testing.B) {
	benchSweep(b, func(d *experiments.Dataset) float64 {
		f := experiments.Figure3(d)
		return f[48][0].Ratios[3] // direct-mapped, 8K, miss 48
	}, "dm-8k-m48")
}

// BenchmarkFigure4 regenerates the per-program 4-way curves.
func BenchmarkFigure4(b *testing.B) {
	benchSweep(b, func(d *experiments.Dataset) float64 {
		f := experiments.Figure4(d)
		series := f[24]
		return series[len(series)-1].Ratios[3] // geomean at 8K
	}, "geomean-8k-m24")
}

// BenchmarkFigure5 regenerates the per-program direct-mapped curves.
func BenchmarkFigure5(b *testing.B) {
	benchSweep(b, func(d *experiments.Dataset) float64 {
		f := experiments.Figure5(d)
		series := f[24]
		return series[len(series)-1].Ratios[3]
	}, "geomean-8k-m24")
}

// BenchmarkFigure6 regenerates the direct-mapped geomeans excluding SS.
func BenchmarkFigure6(b *testing.B) {
	benchSweep(b, func(d *experiments.Dataset) float64 {
		return experiments.Figure6(d)[1].Ratios[3]
	}, "noss-8k-m24")
}

// BenchmarkAccessRatios regenerates the §3.1 reference-count comparison
// and reports the mean MD/AM fetch ratio (paper: 0.77).
func BenchmarkAccessRatios(b *testing.B) {
	benchSweep(b, func(d *experiments.Dataset) float64 {
		rows := experiments.AccessRatios(d)
		return rows[len(rows)-1].Fetches
	}, "fetch-ratio")
}

// BenchmarkFigure2 runs the enabled/unenabled AM ablation.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.EnabledAblation(experiments.QuickWorkloads(), core.Options{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].TPQEnabled, "mmt-tpq-enabled")
	}
}

// BenchmarkBlockSweep runs the block-size ablation (8-64 byte lines).
func BenchmarkBlockSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.BlockSweep(experiments.QuickWorkloads(), core.Options{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Ratio, "ratio-64B")
	}
}

// BenchmarkSimulator measures raw simulation throughput (simulated
// instructions and elapsed ticks per second) per benchmark and
// implementation, without cache fan-out: MD and AM on one node, and MD,
// AM, offload and aa on an 8-node mesh (sub-benchmarks <prog>/n8/<impl>,
// so `-bench 'Simulator/.*/n8'` selects the mesh alone).
func BenchmarkSimulator(b *testing.B) {
	run := func(name, sub string, impl Impl, nodes int) {
		b.Run(name+sub+impl.String(), func(b *testing.B) {
			b.ReportAllocs()
			var instrs, ticks uint64
			for i := 0; i < b.N; i++ {
				res, err := Run(impl, Benchmark(name, quickArg(name)), Options{Nodes: nodes})
				if err != nil {
					b.Fatal(err)
				}
				instrs += res.Instructions
				ticks += res.Ticks
			}
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim-instrs/s")
			b.ReportMetric(float64(ticks)/b.Elapsed().Seconds(), "ticks/s")
		})
	}
	for _, name := range BenchmarkNames() {
		for _, impl := range []Impl{MD, AM} {
			run(name, "/", impl, 1)
		}
		for _, impl := range []Impl{MD, AM, Offload, AA} {
			run(name, "/n8/", impl, 8)
		}
	}
}

// BenchmarkCacheFanout measures the cost of feeding the full 24-geometry
// cache grid during simulation.
func BenchmarkCacheFanout(b *testing.B) {
	sw := experiments.DefaultSweep(nil)
	var geoms []CacheConfig
	for _, kb := range sw.SizesKB {
		for _, a := range sw.Assocs {
			geoms = append(geoms, CacheConfig{SizeBytes: kb * 1024, BlockBytes: 64, Assoc: a})
		}
	}
	for i := 0; i < b.N; i++ {
		if _, err := Run(MD, Benchmark("ss", 100), Options{}, geoms...); err != nil {
			b.Fatal(err)
		}
	}
}

func quickArg(name string) int {
	for _, w := range experiments.QuickWorkloads() {
		if w.Name == name {
			return w.Arg
		}
	}
	return 0
}
