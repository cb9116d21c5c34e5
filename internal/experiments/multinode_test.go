package experiments

import (
	"reflect"
	"testing"

	"jmtam/internal/cache"
	"jmtam/internal/core"
	"jmtam/internal/mem"
)

var tinyWorkloads = []Workload{{"mmt", 8}, {"wavefront", 8}}

func TestRunClusterFillsCachesAndTicks(t *testing.T) {
	geoms := []cache.Config{
		{SizeBytes: 8 * 1024, BlockBytes: 64, Assoc: 4},
		{SizeBytes: 1 * 1024, BlockBytes: 64, Assoc: 1},
	}
	r, err := RunOne(tinyWorkloads[0], core.ImplAM, geoms, core.Options{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes != 4 {
		t.Errorf("Nodes = %d, want 4", r.Nodes)
	}
	if r.Ticks == 0 {
		t.Error("Ticks = 0, want elapsed lockstep time")
	}
	if len(r.Caches) != 2 {
		t.Fatalf("got %d cache stats, want 2", len(r.Caches))
	}
	for i, c := range r.Caches {
		if c.IMisses == 0 {
			t.Errorf("geometry %d: no instruction misses recorded", i)
		}
	}
	// The smaller direct-mapped geometry cannot miss less.
	if r.Caches[1].IMisses+r.Caches[1].DMisses < r.Caches[0].IMisses+r.Caches[0].DMisses {
		t.Error("1K direct-mapped misses fewer than 8K 4-way")
	}
	if r.Counts.TotalFetches() == 0 || r.Instructions == 0 {
		t.Error("reference counts or instructions empty")
	}
}

func TestSweepNodesAxis(t *testing.T) {
	s := &Sweep{
		Workloads:  tinyWorkloads,
		SizesKB:    []int{8},
		Assocs:     []int{4},
		BlockBytes: 64,
		Penalties:  []int{24},
		Options:    core.Options{Nodes: 2},
	}
	d, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range tinyWorkloads {
		for _, impl := range []core.Impl{core.ImplMD, core.ImplAM} {
			r := d.Run(w.Name, impl)
			if r == nil {
				t.Fatalf("%s/%s missing", w.Name, impl)
			}
			if r.Nodes != 2 {
				t.Errorf("%s/%s Nodes = %d, want 2", w.Name, impl, r.Nodes)
			}
		}
		if ratio := d.Ratio(w.Name, 8, 4, 24); ratio <= 0 {
			t.Errorf("%s ratio = %v, want > 0", w.Name, ratio)
		}
	}
}

func TestNodeRatioSweepDeterministic(t *testing.T) {
	geom := cache.Config{SizeBytes: 8 * 1024, BlockBytes: 64, Assoc: 4}
	impls := []core.Impl{core.ImplMD, core.ImplAM, core.ImplOffload, core.ImplAA}
	rows1, err := NodeRatioSweep(tinyWorkloads, impls, []int{1, 2, 4}, geom, 24,
		core.Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := NodeRatioSweep(tinyWorkloads, impls, []int{1, 2, 4}, geom, 24,
		core.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows1) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows1))
	}
	for i := range rows1 {
		if !reflect.DeepEqual(rows1[i], rows2[i]) {
			t.Errorf("row %d differs across parallelism: %+v vs %+v", i, rows1[i], rows2[i])
		}
		for _, impl := range impls {
			name := impl.Name()
			if rows1[i].Cycles[name] == 0 || rows1[i].Ticks[name] == 0 {
				t.Errorf("row %d: %s missing totals: %+v", i, name, rows1[i])
			}
			if rows1[i].RatioCycles[name] <= 0 || rows1[i].RatioTicks[name] <= 0 {
				t.Errorf("row %d: %s non-positive ratios %+v", i, name, rows1[i])
			}
		}
	}
}

// The default impl list reproduces the paper's MD-versus-AM pair.
func TestNodeRatioSweepDefaultImpls(t *testing.T) {
	geom := cache.Config{SizeBytes: 8 * 1024, BlockBytes: 64, Assoc: 4}
	rows, err := NodeRatioSweep(tinyWorkloads[:1], nil, []int{1}, geom, 24,
		core.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{core.ImplMD.Name(), core.ImplAM.Name()}
	if !reflect.DeepEqual(rows[0].Impls, want) {
		t.Errorf("default impls = %v, want %v", rows[0].Impls, want)
	}
	if rows[0].RatioCycles[core.ImplAM.Name()] <= 0 {
		t.Errorf("MD/AM ratio missing: %+v", rows[0])
	}
}

func TestHopLatencySweepStretchesTicks(t *testing.T) {
	rows, err := HopLatencySweep(tinyWorkloads[:1], nil, 4, []uint64{1, 16},
		core.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	// A 16x per-hop delay must not make the mesh faster.
	am, md := core.ImplAM.Name(), core.ImplMD.Name()
	if rows[1].Ticks[am] < rows[0].Ticks[am] || rows[1].Ticks[md] < rows[0].Ticks[md] {
		t.Errorf("higher hop latency reduced ticks: %+v", rows)
	}
}

// TestNICRefCountersEveryNodeCount checks that a metrics-collecting
// sweep of the NIC-offload backend folds the NIC engine's reference
// counts into each run's registry as nic.ref.{fetch,read,write}.<class>
// equal to Run.NIC.Counts, on a mesh exactly as on one node.
func TestNICRefCountersEveryNodeCount(t *testing.T) {
	for _, n := range []int{1, 2} {
		s := &Sweep{
			Workloads:      []Workload{{"dtw", 8}},
			SizesKB:        []int{8},
			Assocs:         []int{4},
			BlockBytes:     64,
			Penalties:      []int{24},
			Impls:          []core.Impl{core.ImplOffload},
			CollectMetrics: true,
			Options:        core.Options{Nodes: n},
		}
		d, err := s.Execute()
		if err != nil {
			t.Fatal(err)
		}
		r := d.Run("dtw", core.ImplOffload)
		if r.NIC == nil || r.NIC.Counts.TotalFetches() == 0 {
			t.Fatalf("n=%d: no NIC engine fetches recorded: %+v", n, r.NIC)
		}
		for cls := mem.Class(0); cls < mem.NumClasses; cls++ {
			for kind, want := range map[string]uint64{
				"fetch": r.NIC.Counts.Fetches[cls],
				"read":  r.NIC.Counts.Reads[cls],
				"write": r.NIC.Counts.Writes[cls],
			} {
				name := "nic.ref." + kind + "." + cls.String()
				if got := r.Metrics.Counter(name).Value(); got != want {
					t.Errorf("n=%d: %s = %d, want %d", n, name, got, want)
				}
			}
		}
	}
}
