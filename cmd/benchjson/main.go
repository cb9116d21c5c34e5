// Command benchjson regenerates Table 2 as a timed benchmark and writes
// the headline numbers to a machine-readable JSON file, so successive
// commits leave a comparable perf trail:
//
//	benchjson                      # writes BENCH_table2.json
//	benchjson -o /tmp/bench.json -scale paper
//	benchjson -distributed 2       # same sweep through the shard coordinator
//	benchjson -o /tmp/b.json -baseline BENCH_table2.json -max-regress 10%
//
// The "quick" scale (the default) matches BenchmarkTable2 in the root
// package; "paper" runs the full benchmark arguments. With -distributed N
// the sweep is farmed out across N in-process tamsimd workers over
// loopback HTTP — same numbers, plus the coordinator and serving
// overhead in the timing.
//
// ms/op is the median of five testing.Benchmark runs, each printed, so
// one busy moment on the host moves one sample, not the figure. With
// -baseline, the fresh numbers are compared against a committed result
// file: the run fails (exit 1) when ms/op exceeds the baseline by more
// than -max-regress, or when any ratio column drifts at all — ratios
// are deterministic, so any change is a correctness bug, not noise. CI
// runs this as the perf gate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"jmtam/api"
	"jmtam/internal/core"
	"jmtam/internal/experiments"
	"jmtam/internal/server"
	"jmtam/internal/shard"
	"jmtam/internal/stats"
)

// result is the schema of BENCH_table2.json.
type result struct {
	Scale string `json:"scale"`
	// Distributed is the worker count when the sweep ran through the
	// shard coordinator; absent for the in-process path.
	Distributed int     `json:"distributed,omitempty"`
	MsPerOp     float64 `json:"ms_per_op"`
	// GeomeanRatio maps miss penalty (cycles) to the geometric-mean
	// MD/AM cycle ratio at the headline 8K 4-way geometry.
	GeomeanRatio map[string]float64 `json:"geomean_md_am_ratio_8k_4way"`
	// PerProgram maps workload name to its MD/AM ratio at miss 24.
	PerProgram map[string]float64 `json:"md_am_ratio_8k_4way_m24"`
	// BackendGeomean maps every registered non-MD backend's wire name
	// to the geometric-mean MD-relative cycle ratio (MD cycles over the
	// backend's; >1 means the backend wins) at 8K 4-way, miss 24. The
	// perf gate checks every backend present in both files exactly, so
	// it pins each backend's replayed 8K 4-way misses; a new backend
	// joins the trail here without failing the gate.
	BackendGeomean map[string]float64 `json:"md_relative_geomean_8k_4way_m24,omitempty"`
}

func main() {
	out := flag.String("o", "BENCH_table2.json", "output file")
	scale := flag.String("scale", "quick", "workload scale: quick|paper")
	distributed := flag.Int("distributed", 0, "farm the sweep across N in-process workers over loopback HTTP (0 = run in-process)")
	baseline := flag.String("baseline", "", "committed result file to compare against (perf gate)")
	maxRegress := flag.String("max-regress", "10%", "ms/op regression tolerance vs -baseline, e.g. 10%")
	flag.Parse()

	var ws []experiments.Workload
	switch *scale {
	case "quick":
		ws = experiments.QuickWorkloads()
	case "paper":
		ws = experiments.PaperWorkloads()
	default:
		fmt.Fprintf(os.Stderr, "benchjson: unknown -scale %q\n", *scale)
		os.Exit(1)
	}

	res := result{
		Scale:        *scale,
		Distributed:  *distributed,
		GeomeanRatio: map[string]float64{},
		PerProgram:   map[string]float64{},
	}
	if *distributed > 0 {
		benchDistributed(&res, ws, *distributed)
	} else {
		benchLocal(&res, ws)
	}
	measureBackendGeomean(&res, ws)

	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %.1f ms/op, geomean ratio (miss 24) %.4f\n",
		*out, res.MsPerOp, res.GeomeanRatio["miss24"])

	if *baseline != "" {
		if err := compareBaseline(&res, *baseline, *maxRegress); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: perf gate:", err)
			os.Exit(1)
		}
		fmt.Printf("perf gate: within %s of %s\n", *maxRegress, *baseline)
	}
}

// compareBaseline enforces the perf gate: ms/op may exceed the baseline
// by at most the given percentage, and every ratio present in both
// results must match exactly — the sweep is deterministic, so ratio
// drift means the simulator or cache model changed behavior.
func compareBaseline(res *result, path, tolerance string) error {
	pct, err := strconv.ParseFloat(strings.TrimSuffix(tolerance, "%"), 64)
	if err != nil || pct < 0 {
		return fmt.Errorf("bad -max-regress %q", tolerance)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base result
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if base.Scale != res.Scale {
		return fmt.Errorf("scale mismatch: baseline %q vs run %q", base.Scale, res.Scale)
	}
	if limit := base.MsPerOp * (1 + pct/100); res.MsPerOp > limit {
		return fmt.Errorf("ms/op regressed: %.1f vs baseline %.1f (limit %.1f)",
			res.MsPerOp, base.MsPerOp, limit)
	}
	for k, want := range base.GeomeanRatio {
		if got, ok := res.GeomeanRatio[k]; ok && got != want {
			return fmt.Errorf("geomean ratio %s drifted: %v vs baseline %v", k, got, want)
		}
	}
	for k, want := range base.PerProgram {
		if got, ok := res.PerProgram[k]; ok && got != want {
			return fmt.Errorf("per-program ratio %s drifted: %v vs baseline %v", k, got, want)
		}
	}
	for k, want := range base.BackendGeomean {
		if got, ok := res.BackendGeomean[k]; ok && got != want {
			return fmt.Errorf("backend geomean %s drifted: %v vs baseline %v", k, got, want)
		}
	}
	return nil
}

// benchRuns is how many testing.Benchmark runs time the sweep.
const benchRuns = 5

// medianMsPerOp times fn with testing.Benchmark benchRuns times, prints
// each run's ms/op, and returns their median.
func medianMsPerOp(fn func(b *testing.B)) float64 {
	ms := make([]float64, benchRuns)
	for i := range ms {
		ms[i] = float64(testing.Benchmark(fn).NsPerOp()) / 1e6
		fmt.Printf("run %d of %d: %.1f ms/op\n", i+1, benchRuns, ms[i])
	}
	slices.Sort(ms)
	return ms[benchRuns/2]
}

func benchLocal(res *result, ws []experiments.Workload) {
	var ds *experiments.Dataset
	res.MsPerOp = medianMsPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			ds, err = experiments.DefaultSweep(ws).Execute()
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
		}
	})
	for _, p := range ds.Sweep.Penalties {
		res.GeomeanRatio[fmt.Sprintf("miss%d", p)] = ds.GeoMeanRatio(8, 4, p)
	}
	for _, w := range ds.Sweep.Workloads {
		res.PerProgram[w.Name] = ds.Ratio(w.Name, 8, 4, 24)
	}
}

// measureBackendGeomean runs every registered backend over the
// workloads as one sweep at the headline geometry, so am and offload
// share a simulation, and records the untimed, ungated MD-relative
// geomean ratios (see result.BackendGeomean).
func measureBackendGeomean(res *result, ws []experiments.Workload) {
	s := &experiments.Sweep{Workloads: ws, SizesKB: []int{8}, Assocs: []int{4}, BlockBytes: 64, Penalties: []int{24}}
	for _, b := range core.Backends() {
		s.Impls = append(s.Impls, b.Impl)
	}
	ds, err := s.Execute()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	res.BackendGeomean = map[string]float64{}
	for _, b := range core.Backends() {
		if b.Impl == core.ImplMD {
			continue
		}
		var xs []float64
		for _, w := range ws {
			md := ds.Run(w.Name, core.ImplMD).Cycles(0, 24, false)
			if c := ds.Run(w.Name, b.Impl).Cycles(0, 24, false); c > 0 {
				xs = append(xs, float64(md)/float64(c))
			}
		}
		if len(xs) > 0 {
			res.BackendGeomean[b.Name] = stats.GeoMean(xs)
		}
	}
}

// benchDistributed times the same grid through the shard coordinator
// against n in-process tamsimd workers on loopback HTTP, then derives
// the ratio tables from the workers' position-indexed rows. The
// coordinator has no Local, so a worker that dies fails the run rather
// than timing in-process execution.
func benchDistributed(res *result, ws []experiments.Workload, n int) {
	sw := experiments.DefaultSweep(ws)
	spec := &shard.Spec{
		SizesKB:    sw.SizesKB,
		Assocs:     sw.Assocs,
		BlockBytes: sw.BlockBytes,
		Penalties:  sw.Penalties,
		Impls:      []string{"md", "am"},
	}
	for _, w := range ws {
		spec.Workloads = append(spec.Workloads, shard.Workload{Program: w.Name, Arg: w.Arg})
	}
	var workers []string
	for i := 0; i < n; i++ {
		srv, err := server.New(server.Config{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Close()
		workers = append(workers, ts.URL)
	}
	coord := shard.New(shard.Config{Workers: workers})

	var units []api.SweepRunSummary
	res.MsPerOp = medianMsPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			units, err = coord.Run(context.Background(), spec)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
		}
	})

	g84 := -1
	for i, g := range spec.CacheConfigs() {
		if g.SizeBytes == 8*1024 && g.Assoc == 4 {
			g84 = i
			break
		}
	}
	// Units are workload-major, impl-minor and spec.Impls is [md, am];
	// each row's cycles follow spec.Penalties.
	for pi, p := range spec.Penalties {
		var xs []float64
		for wi := range spec.Workloads {
			md, am := units[2*wi], units[2*wi+1]
			r := float64(md.Caches[g84].Cycles[pi].Cycles) / float64(am.Caches[g84].Cycles[pi].Cycles)
			xs = append(xs, r)
			if p == 24 {
				res.PerProgram[md.Program] = r
			}
		}
		res.GeomeanRatio[fmt.Sprintf("miss%d", p)] = stats.GeoMean(xs)
	}
}
