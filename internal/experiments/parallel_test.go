package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"jmtam/internal/cache"
	"jmtam/internal/cache/cachetest"
	"jmtam/internal/core"
	"jmtam/internal/obs"
	"jmtam/internal/programs"
	"jmtam/internal/trace"
)

// scalarStats is the reference replay: Recording.Do plus one access
// per reference to a fresh reference-model pair of the geometry, the
// accesses an inline per-reference fan-out would make.
func scalarStats(rec *trace.Recording, geom cache.Config) CacheStats {
	ic, dc := cachetest.New(geom), cachetest.New(geom)
	rec.Do(func(k trace.Kind, addr uint32) {
		if k == trace.KindFetch {
			ic.Access(addr, false)
		} else {
			dc.Access(addr, k == trace.KindWrite)
		}
	})
	return CacheStats{
		Config:     geom,
		IMisses:    ic.Stats().Misses,
		DMisses:    dc.Stats().Misses,
		Writebacks: dc.Stats().Writebacks,
	}
}

// TestReplayEquivalence asserts the engine's core invariant across the
// fan-out's shapes: singleton geometry groups (workers >= geometries),
// one group over all geometries, and the attributing replay all yield
// miss and writeback counts identical to the scalar reference replay of
// a separately built simulation's recording, for every quick workload
// and both implementations.
func TestReplayEquivalence(t *testing.T) {
	geoms := []cache.Config{
		{SizeBytes: 1 * 1024, BlockBytes: 64, Assoc: 1},
		{SizeBytes: 8 * 1024, BlockBytes: 64, Assoc: 4},
		{SizeBytes: 32 * 1024, BlockBytes: 64, Assoc: 2},
	}
	for _, w := range QuickWorkloads() {
		for _, impl := range []core.Impl{core.ImplMD, core.ImplAM} {
			// Reference: a plain Sim with a recording attached, replayed
			// one reference at a time.
			spec, err := programs.ByName(w.Name)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := core.Build(impl, spec.Build(w.Arg), core.Options{MaxInstructions: 2_000_000_000})
			if err != nil {
				t.Fatal(err)
			}
			ref := &trace.Recording{}
			sim.Tracer = ref
			if err := sim.Run(); err != nil {
				t.Fatal(err)
			}
			want := make([]CacheStats, len(geoms))
			for g, geom := range geoms {
				want[g] = scalarStats(ref, geom)
			}

			// Record once; replay through both fan-out shapes.
			r, rec, err := RecordOne(w, impl, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r.Counts != ref.Counts {
				t.Errorf("%s/%v: replay counts %+v != reference %+v",
					w.Name, impl, r.Counts, ref.Counts)
			}
			if r.Instructions != sim.M.Instructions() {
				t.Errorf("%s/%v: instructions %d != %d", w.Name, impl, r.Instructions, sim.M.Instructions())
			}
			// Workers >= geometries: singleton groups, the per-geometry path.
			if err := ReplayFanOutContext(context.Background(), r, rec, geoms, len(geoms)+1); err != nil {
				t.Fatal(err)
			}
			scalar := append([]CacheStats(nil), r.Caches...)
			// One worker: a single vectorized group over every geometry.
			if err := ReplayFanOutContext(context.Background(), r, rec, geoms, 1); err != nil {
				t.Fatal(err)
			}
			vectorized := append([]CacheStats(nil), r.Caches...)
			for g := range geoms {
				if scalar[g] != want[g] {
					t.Errorf("%s/%v geom %v: scalar replay %+v != reference %+v",
						w.Name, impl, geoms[g], scalar[g], want[g])
				}
				if vectorized[g] != want[g] {
					t.Errorf("%s/%v geom %v: vectorized replay %+v != reference %+v",
						w.Name, impl, geoms[g], vectorized[g], want[g])
				}
			}

			// Attributing replay: a run with a metrics registry takes the
			// kernel's attribution hook; its statistics must not move and
			// its per-cause counters must sum to each geometry's misses.
			rObs := &Run{Metrics: obs.NewRegistry()}
			if err := ReplayFanOutContext(context.Background(), rObs, rec, geoms, 1); err != nil {
				t.Fatal(err)
			}
			for g := range geoms {
				if rObs.Caches[g] != want[g] {
					t.Errorf("%s/%v geom %v: attributing replay %+v != reference %+v",
						w.Name, impl, geoms[g], rObs.Caches[g], want[g])
				}
				var attributed uint64
				for _, name := range rObs.Metrics.CounterNames() {
					if strings.HasPrefix(name, geoms[g].String()+": cache.miss.") {
						attributed += rObs.Metrics.Counter(name).Value()
					}
				}
				if attributed != want[g].IMisses+want[g].DMisses {
					t.Errorf("%s/%v geom %v: attributed misses %d != total %d",
						w.Name, impl, geoms[g], attributed, want[g].IMisses+want[g].DMisses)
				}
			}
		}
	}
}

// TestParallelDeterminism asserts that Execute yields a numerically
// identical Dataset at parallelism 1 and parallelism N.
func TestParallelDeterminism(t *testing.T) {
	build := func(par int) *Sweep {
		s := tinySweep()
		s.Workloads = append(s.Workloads, Workload{"dtw", 6})
		s.Parallelism = par
		return s
	}
	serial, err := build(1).Execute()
	if err != nil {
		t.Fatal(err)
	}
	wide, err := build(8).Execute()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Geoms, wide.Geoms) {
		t.Fatalf("geometry grids diverge")
	}
	for _, w := range serial.Sweep.Workloads {
		for _, impl := range []core.Impl{core.ImplMD, core.ImplAM} {
			a, b := serial.Run(w.Name, impl), wide.Run(w.Name, impl)
			if a == nil || b == nil {
				t.Fatalf("%s/%v missing run", w.Name, impl)
			}
			if a.Instructions != b.Instructions || a.Counts != b.Counts {
				t.Errorf("%s/%v: simulation outcome differs between parallelism settings", w.Name, impl)
			}
			if !reflect.DeepEqual(a.Caches, b.Caches) {
				t.Errorf("%s/%v: cache stats differ between parallelism settings", w.Name, impl)
			}
		}
		for _, kb := range serial.Sweep.SizesKB {
			for _, assoc := range serial.Sweep.Assocs {
				for _, pen := range serial.Sweep.Penalties {
					if r1, rn := serial.Ratio(w.Name, kb, assoc, pen), wide.Ratio(w.Name, kb, assoc, pen); r1 != rn {
						t.Errorf("%s %dK/%d-way/m%d: ratio %v (serial) != %v (parallel)",
							w.Name, kb, assoc, pen, r1, rn)
					}
				}
			}
		}
	}
}

// TestExecuteDoesNotMutateReceiver guards the concurrent-reuse
// contract: defaults are resolved into locals, never written back.
func TestExecuteDoesNotMutateReceiver(t *testing.T) {
	s := tinySweep()
	if s.Impls != nil {
		t.Fatal("tinySweep unexpectedly sets Impls")
	}
	first, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if s.Impls != nil {
		t.Errorf("Execute wrote defaults onto the receiver: %v", s.Impls)
	}
	// A second execution of the same value must succeed and agree.
	second, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if r1, r2 := first.Ratio("ss", 8, 4, 12), second.Ratio("ss", 8, 4, 12); r1 != r2 {
		t.Errorf("repeated Execute diverged: %v vs %v", r1, r2)
	}
}

// TestBlockSweepDeterminism pins BlockSweep's record-once/replay-many
// path to its serial outcome.
func TestBlockSweepDeterminism(t *testing.T) {
	ws := []Workload{{"ss", 40}, {"qs", 30}}
	serial, err := BlockSweep(ws, core.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := BlockSweep(ws, core.Options{}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Errorf("BlockSweep rows differ:\nserial: %+v\nparallel: %+v", serial, wide)
	}
}

// TestAssocSweepDeterminism pins the associativity ablation (which
// exercises the generic 8/16-way kernels through the vectorized replay)
// to its serial outcome, and sanity-checks the grid.
func TestAssocSweepDeterminism(t *testing.T) {
	ws := []Workload{{"ss", 40}, {"qs", 30}}
	serial, err := AssocSweep(ws, core.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := AssocSweep(ws, core.Options{}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Errorf("AssocSweep rows differ:\nserial: %+v\nparallel: %+v", serial, wide)
	}
	if len(serial) != 5 || serial[0].Assoc != 1 || serial[4].Assoc != 16 {
		t.Fatalf("unexpected associativity grid: %+v", serial)
	}
	for i, r := range serial {
		if r.MDCycles == 0 || r.AMCycles == 0 || r.Ratio <= 0 {
			t.Errorf("row %d incomplete: %+v", i, r)
		}
		// More ways can only remove conflict misses at fixed size.
		if i > 0 && r.MDMisses > serial[i-1].MDMisses*21/20 {
			t.Errorf("MD misses rose sharply with associativity: %d-way %d vs %d-way %d",
				r.Assoc, r.MDMisses, serial[i-1].Assoc, serial[i-1].MDMisses)
		}
	}
}

// TestRunOneBadGeometry checks geometry validation happens before
// simulation.
func TestRunOneBadGeometry(t *testing.T) {
	bad := []cache.Config{{SizeBytes: 100, BlockBytes: 64, Assoc: 1}}
	if _, err := RunOne(Workload{"nope", 1}, core.ImplMD, bad, core.Options{}); err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Error("invalid geometry accepted")
	}
}
