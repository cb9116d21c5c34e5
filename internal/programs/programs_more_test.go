package programs

import (
	"testing"

	"jmtam/internal/core"
	"jmtam/internal/trace"
)

func TestQS(t *testing.T) {
	for _, impl := range testImpls {
		t.Run(impl.String(), func(t *testing.T) {
			run(t, impl, QS(80))
		})
	}
}

func TestQSSizes(t *testing.T) {
	// Exercise the recursion edge cases: tiny arrays, duplicates-heavy
	// arrays (the generator produces values in [0, 10n), so small n has
	// many collisions).
	for _, n := range []int{1, 2, 3, 5, 17} {
		if err := buildRun(core.ImplMD, QS(n)); err != nil {
			t.Errorf("qs %d: %v", n, err)
		}
	}
}

func TestMMT(t *testing.T) {
	for _, impl := range testImpls {
		t.Run(impl.String(), func(t *testing.T) {
			run(t, impl, MMT(8))
		})
	}
}

func TestParaffins(t *testing.T) {
	for _, impl := range testImpls {
		t.Run(impl.String(), func(t *testing.T) {
			run(t, impl, Paraffins(13)) // the paper's argument; verified vs known counts
		})
	}
}

func TestParaffinsRefKnownCounts(t *testing.T) {
	want := []int64{0, 1, 1, 1, 2, 3, 5, 9, 18, 35, 75, 159, 355, 802}
	got := ParaffinsRef(13)
	for k := 1; k <= 13; k++ {
		if got[k] != want[k] {
			t.Errorf("paraffins ref p(%d) = %d, want %d", k, got[k], want[k])
		}
	}
}

func TestSSSizes(t *testing.T) {
	for _, n := range []int{2, 3, 10} {
		if err := buildRun(core.ImplAM, SS(n)); err != nil {
			t.Errorf("ss %d: %v", n, err)
		}
	}
}

func TestWavefrontSizes(t *testing.T) {
	for _, n := range []int{2, 3, 7} {
		if err := buildRun(core.ImplMD, Wavefront(n)); err != nil {
			t.Errorf("wavefront %d: %v", n, err)
		}
	}
}

func TestDTWSizes(t *testing.T) {
	for _, n := range []int{2, 3, 10} {
		if err := buildRun(core.ImplOAM, DTW(n)); err != nil {
			t.Errorf("dtw %d: %v", n, err)
		}
	}
}

// TestDeterminism: two independent runs of the same workload must agree
// on every counter — the simulator is bit-for-bit reproducible.
func TestDeterminism(t *testing.T) {
	snapshot := func() (uint64, uint64, uint64, uint64) {
		sim, err := core.Build(core.ImplMD, QS(50), core.Options{MaxInstructions: 50_000_000})
		if err != nil {
			t.Fatal(err)
		}
		sim.Tracer = &trace.Recording{}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return sim.M.Instructions(), sim.Tracer.TotalReads(),
			sim.Tracer.TotalWrites(), sim.Gran.Quanta
	}
	i1, r1, w1, q1 := snapshot()
	i2, r2, w2, q2 := snapshot()
	if i1 != i2 || r1 != r2 || w1 != w2 || q1 != q2 {
		t.Errorf("nondeterministic run: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			i1, r1, w1, q1, i2, r2, w2, q2)
	}
}

// TestRegistry checks the benchmark registry's integrity.
func TestRegistry(t *testing.T) {
	if _, err := ByName("mmt"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("unknown name accepted")
	}
	if got := len(Names()); got != 6 {
		t.Errorf("Names() has %d entries", got)
	}
	for _, s := range All() {
		if s.Doc == "" {
			t.Errorf("%s has no doc line", s.Name)
		}
	}
}

// TestQuantumHistogram: SS is one giant quantum; QS is many small ones.
func TestQuantumHistogram(t *testing.T) {
	ss := run(t, core.ImplMD, SS(40))
	var ssBuckets int
	for _, c := range ss.Gran.QuantumHist.Buckets {
		if c > 0 {
			ssBuckets++
		}
	}
	if ssBuckets != 1 || ss.Gran.MaxQuantum() < 500 {
		t.Errorf("SS histogram unexpected: %v (max %d)", ss.Gran.QuantumHist.Buckets, ss.Gran.MaxQuantum())
	}
	qs := run(t, core.ImplMD, QS(60))
	// Small quanta: one or two threads (buckets 1 and 2).
	if qs.Gran.QuantumHist.Buckets[1]+qs.Gran.QuantumHist.Buckets[2] == 0 {
		t.Errorf("QS has no small quanta: %v", qs.Gran.QuantumHist.Buckets)
	}
}

func buildRun(impl core.Impl, p *core.Program) error {
	sim, err := core.Build(impl, p, core.Options{MaxInstructions: 100_000_000})
	if err != nil {
		return err
	}
	return sim.Run()
}
