package jmtam

import (
	"strings"
	"testing"

	"jmtam/internal/cache/cachetest"
	"jmtam/internal/experiments"
	"jmtam/internal/trace"
)

func TestBenchmarkNames(t *testing.T) {
	names := BenchmarkNames()
	want := []string{"mmt", "qs", "dtw", "paraffins", "wavefront", "ss"}
	if len(names) != len(want) {
		t.Fatalf("got %d names, want %d", len(names), len(want))
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("names[%d] = %q, want %q", i, names[i], n)
		}
	}
}

func TestRunVerifies(t *testing.T) {
	res, err := Run(MD, Benchmark("ss", 30), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions == 0 || res.Threads == 0 {
		t.Errorf("empty result: %+v", res)
	}
}

func TestRunWithCaches(t *testing.T) {
	geoms := []CacheConfig{
		{SizeBytes: 1024, BlockBytes: 64, Assoc: 1},
		{SizeBytes: 8192, BlockBytes: 64, Assoc: 4},
	}
	res, err := Run(AM, Benchmark("qs", 40), Options{}, geoms...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Caches) != 2 {
		t.Fatalf("got %d cache results, want 2", len(res.Caches))
	}
	small := res.Cycles(0, 24)
	big := res.Cycles(1, 24)
	if small < big {
		t.Errorf("1K cache cycles %d < 8K cache cycles %d", small, big)
	}
	if res.Cycles(1, 48) < res.Cycles(1, 12) {
		t.Error("higher miss penalty produced fewer cycles")
	}
}

func TestCompareAt(t *testing.T) {
	geom := CacheConfig{SizeBytes: 8192, BlockBytes: 64, Assoc: 4}
	ratio, err := CompareAt(func() *Program { return Benchmark("ss", 60) }, geom, 24, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ratio <= 0 || ratio >= 1.2 {
		t.Errorf("SS MD/AM ratio = %.2f, expected MD to win (paper: 0.86)", ratio)
	}
}

func TestBenchmarkPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Benchmark(\"nope\") did not panic")
		}
	}()
	Benchmark("nope", 1)
}

func TestQuickSweepReports(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	sw := NewQuickSweep()
	ds, err := sw.Execute()
	if err != nil {
		t.Fatal(err)
	}
	table := ReportTable2(ds)
	for _, name := range BenchmarkNames() {
		if !strings.Contains(table, name) {
			t.Errorf("Table 2 missing %s:\n%s", name, table)
		}
	}
	for _, s := range []string{ReportFigure3(ds), ReportFigure4(ds), ReportFigure5(ds), ReportFigure6(ds)} {
		if !strings.Contains(s, "legend:") {
			t.Error("figure rendering missing legend")
		}
	}
	if r := ds.GeoMeanRatio(8, 4, 12); r <= 0 || r >= 1 {
		t.Errorf("geomean ratio at 8K/4-way/12 = %.2f; MD should win (paper Figure 3)", r)
	}
	// Direct-mapped caches favour MD (paper §3.3.2).
	if dm, sa := ds.GeoMeanRatio(8, 1, 24), ds.GeoMeanRatio(8, 4, 24); dm >= sa {
		t.Errorf("direct-mapped ratio %.3f not below 4-way ratio %.3f", dm, sa)
	}
	// AM gains as the miss penalty grows (paper §3.3).
	if r12, r48 := ds.GeoMeanRatio(8, 4, 12), ds.GeoMeanRatio(8, 4, 48); r48 <= r12 {
		t.Errorf("ratio at miss 48 (%.3f) not above ratio at miss 12 (%.3f)", r48, r12)
	}
}

func TestWordHelpers(t *testing.T) {
	if Int(5).AsInt() != 5 || Float(1.5).AsFloat() != 1.5 || Ptr(64).Addr() != 64 {
		t.Error("word helpers broken")
	}
}

// TestBuildFacade records a Build simulation and replays the recording
// one reference at a time through the reference model against Run's
// counts and cache statistics for the same program and geometry.
func TestBuildFacade(t *testing.T) {
	geom := CacheConfig{SizeBytes: 1024, BlockBytes: 64, Assoc: 1}
	sim, err := Build(MD, Benchmark("ss", 20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recording{}
	sim.Tracer = rec
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	ic, dc := cachetest.New(geom), cachetest.New(geom)
	rec.Do(func(k trace.Kind, addr uint32) {
		if k == trace.KindFetch {
			ic.Access(addr, false)
		} else {
			dc.Access(addr, k == trace.KindWrite)
		}
	})
	res, err := Run(MD, Benchmark("ss", 20), Options{}, geom)
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.CacheStats{Config: geom, IMisses: ic.Stats().Misses,
		DMisses: dc.Stats().Misses, Writebacks: dc.Stats().Writebacks}
	if res.Instructions != sim.M.Instructions() || res.Reads != rec.TotalReads() ||
		res.Writes != rec.TotalWrites() || res.Caches[0] != want {
		t.Errorf("Run %+v disagrees with the scalar replay of Build's recording: instructions %d, reads %d, writes %d, caches %+v",
			res, sim.M.Instructions(), rec.TotalReads(), rec.TotalWrites(), want)
	}
}

func TestNewPaperSweepShape(t *testing.T) {
	sw := NewPaperSweep()
	if len(sw.Workloads) != 6 || len(sw.SizesKB) != 8 || len(sw.Assocs) != 3 {
		t.Errorf("paper sweep shape wrong: %+v", sw)
	}
	if sw.BlockBytes != 64 {
		t.Errorf("block = %d", sw.BlockBytes)
	}
	for _, w := range sw.Workloads {
		if w.Name == "mmt" && w.Arg != 50 {
			t.Errorf("paper mmt arg = %d", w.Arg)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(MD, Benchmark("ss", 10), Options{},
		CacheConfig{SizeBytes: 3, BlockBytes: 64, Assoc: 1}); err == nil {
		t.Error("bad geometry accepted")
	}
	if _, err := Run(MD, Benchmark("ss", 10), Options{MaxInstructions: 5}); err == nil {
		t.Error("instruction limit not surfaced")
	}
}
