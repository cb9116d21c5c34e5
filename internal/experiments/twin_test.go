package experiments

import (
	"context"
	"fmt"
	"io"
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

// words reads a source to its end.
func words(t *testing.T, src trace.Source) []uint32 {
	t.Helper()
	var out []uint32
	for {
		c, err := src.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c...)
	}
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

// TestTwinRunsMatchSeparateRuns checks the shared simulation of am and
// offload: for every quick workload at N = 1, 4 and 8, a runCells over
// the two backends must give each the run it gets when recorded and
// replayed on its own, every field of it, through the Table-2 grid.
// Each node's offload streams, merged by the switch log, must also be
// AM's own recording word for word.
func TestTwinRunsMatchSeparateRuns(t *testing.T) {
	geoms := table2Grid()
	ctx := context.Background()
	for _, nodes := range []int{1, 4, 8} {
		opt := core.Options{Nodes: nodes}
		for _, w := range QuickWorkloads() {
			name := fmt.Sprintf("%s N=%d", w.Name, nodes)
			cells := grid([]Workload{w}, []core.Impl{core.ImplAM, core.ImplOffload}, opt)
			if tw := twins(cells); !slices.Equal(tw, []int{1, 0}) {
				t.Fatalf("%s: twins = %v, want [1 0]", name, tw)
			}
			shared, err := runCells(ctx, cells, geoms, 0, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var amRecs []*trace.Recording
			for i, c := range cells {
				r, recs, err := RecordClusterContext(ctx, w, c.impl, opt)
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
			off, recs, err := cells[1].record(ctx, true)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for k := range recs {
				got := words(t, trace.Merge(recs[k], off.nicRecs[k], off.switches[k]))
				if want := words(t, amRecs[k].Chunks()); !slices.Equal(got, want) {
					t.Errorf("%s node %d: merged stream of %d refs differs from AM's %d", name, k, len(got), len(want))
				}
			}
		}
	}
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
