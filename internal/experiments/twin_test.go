package experiments

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"jmtam/internal/cache"
	"jmtam/internal/core"
	"jmtam/internal/obs"
	"jmtam/internal/trace"
)

// table2Grid is the default sweep's 24 geometries.
func table2Grid() []cache.Config {
	s := DefaultSweep(nil)
	var geoms []cache.Config
	for _, kb := range s.SizesKB {
		for _, a := range s.Assocs {
			geoms = append(geoms, cache.Config{SizeBytes: kb * 1024, BlockBytes: s.BlockBytes, Assoc: a})
		}
	}
	return geoms
}

// diffRuns names the exported fields in which two runs differ.
func diffRuns(a, b *Run) []string {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	var out []string
	for _, f := range reflect.VisibleFields(va.Type()) {
		if f.IsExported() && !reflect.DeepEqual(va.FieldByIndex(f.Index).Interface(), vb.FieldByIndex(f.Index).Interface()) {
			out = append(out, f.Name)
		}
	}
	return out
}

// TestTwinRunsMatchSeparateRuns checks runCells, which replays each
// stream while the simulation records it and simulates am and offload
// once, against the two-phase path. For every quick workload under
// every backend at N = 1, 4 and 8, with and without an observability
// sink, each cell's run must equal, every field of it (NIC and metrics
// included), the run RecordCluster and ReplayClusterFanOutContext give
// it through the Table-2 grid. Each node's two offload streams, as
// Simulate hands them to its extra callback, must also make AM's own
// recording word for word.
func TestTwinRunsMatchSeparateRuns(t *testing.T) {
	geoms := table2Grid()
	ctx := context.Background()
	var impls []core.Impl
	for _, b := range core.Backends() {
		impls = append(impls, b.Impl)
	}
	for _, nodes := range []int{1, 4, 8} {
		for _, w := range QuickWorkloads() {
			var amRecs []*trace.Recording
			for _, sink := range []bool{false, true} {
				name := fmt.Sprintf("%s N=%d sink=%v", w.Name, nodes, sink)
				opt := func() core.Options {
					o := core.Options{Nodes: nodes}
					if sink {
						o.Obs = obs.New()
					}
					return o
				}
				var cells []cell
				for _, impl := range impls {
					cells = append(cells, cell{w, impl, opt()})
				}
				if paired := slices.ContainsFunc(twins(cells), func(j int) bool { return j >= 0 }); paired == sink {
					t.Fatalf("%s: twins %v", name, twins(cells))
				}
				shared, err := runCells(ctx, cells, geoms, 0, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i, c := range cells {
					r, recs, err := RecordCluster(w, c.impl, opt())
					if err != nil {
						t.Fatalf("%s/%s: %v", name, c.impl, err)
					}
					if err := ReplayClusterFanOutContext(ctx, r, recs, geoms, 1); err != nil {
						t.Fatalf("%s/%s: %v", name, c.impl, err)
					}
					if !reflect.DeepEqual(shared[i], r) {
						t.Errorf("%s/%s: shared run differs from its own in %v", name, c.impl, diffRuns(shared[i], r))
					}
					if c.impl == core.ImplAM {
						amRecs = recs
					}
				}
			}
			merged := make([][]uint32, nodes)
			cs, err := Build(w, core.ImplOffload, core.Options{Nodes: nodes})
			if err != nil {
				t.Fatal(err)
			}
			_, err = Simulate(ctx, cs, nil, true, func(k int, _ bool, refs []uint32) {
				merged[k] = append(merged[k], refs...)
			})
			cs.Close()
			if err != nil {
				t.Fatalf("%s N=%d: %v", w.Name, nodes, err)
			}
			for k := range merged {
				if want := words(amRecs[k]); !slices.Equal(merged[k], want) {
					t.Errorf("%s N=%d node %d: drained stream of %d refs differs from AM's %d", w.Name, nodes, k, len(merged[k]), len(want))
				}
			}
		}
	}
}

// words returns the packed words rec holds, in order.
func words(rec *trace.Recording) []uint32 {
	var out []uint32
	rec.Do(func(k trace.Kind, addr uint32) { out = append(out, trace.Encode(k, addr)) })
	return out
}

// TestTwins pins which cells share a simulation: only an offload cell
// and an am cell of one workload and one set of options, without a
// sink, and each cell at most once.
func TestTwins(t *testing.T) {
	ws := []Workload{{"ss", 40}, {"mmt", 4}}
	all := grid(ws, []core.Impl{core.ImplMD, core.ImplAM, core.ImplAMEnabled, core.ImplOAM, core.ImplOffload, core.ImplAA}, core.Options{})
	want := []int{-1, 4, -1, -1, 1, -1, -1, 10, -1, -1, 7, -1}
	if got := twins(all); !slices.Equal(got, want) {
		t.Errorf("registry grid: twins = %v, want %v", got, want)
	}
	two := append(grid(ws[:1], []core.Impl{core.ImplAM, core.ImplAM}, core.Options{}),
		grid(ws[:1], []core.Impl{core.ImplOffload}, core.Options{})...)
	if got := twins(two); !slices.Equal(got, []int{2, -1, 0}) {
		t.Errorf("two am cells: twins = %v, want [2 -1 0]", got)
	}
	apart := grid(ws[:1], []core.Impl{core.ImplAM}, core.Options{})
	apart = append(apart, grid(ws[:1], []core.Impl{core.ImplOffload}, core.Options{Nodes: 4})...)
	apart = append(apart, grid(ws[1:], []core.Impl{core.ImplOffload}, core.Options{})...)
	if got := twins(apart); !slices.Equal(got, []int{-1, -1, -1}) {
		t.Errorf("other nodes or workload: twins = %v, want none", got)
	}
	sink := grid(ws[:1], []core.Impl{core.ImplAM, core.ImplOffload}, core.Options{Obs: obs.New()})
	if got := twins(sink); !slices.Equal(got, []int{-1, -1}) {
		t.Errorf("cells sharing a sink: twins = %v, want none", got)
	}
}
