package programs

import (
	"testing"

	"jmtam/internal/core"
)

// quick builds reduced-size instances of all six benchmarks, preserving
// their granularity ordering, for fast shape tests.
func quick() []Spec {
	return []Spec{
		{"mmt", 10, MMT, ""},
		{"qs", 60, QS, ""},
		{"dtw", 8, DTW, ""},
		{"paraffins", 10, Paraffins, ""},
		{"wavefront", 16, Wavefront, ""},
		{"ss", 60, SS, ""},
	}
}

// TestTable2Shape verifies the granularity relationships of Table 2:
// threads per quantum is (weakly) increasing across the benchmark order
// MMT -> ... -> SS, with wavefront and SS far coarser than the rest, and
// the MD implementation always executes fewer instructions than AM.
func TestTable2Shape(t *testing.T) {
	type res struct {
		name   string
		tpq    [2]float64
		instrs [2]uint64
	}
	var rs []res
	for _, s := range quick() {
		r := res{name: s.Name}
		for i, impl := range []core.Impl{core.ImplMD, core.ImplAM} {
			sim := run(t, impl, s.Build(s.Arg))
			r.tpq[i] = sim.Gran.TPQ()
			r.instrs[i] = sim.M.Instructions()
		}
		rs = append(rs, r)
	}
	for _, r := range rs {
		if r.instrs[0] >= r.instrs[1] {
			t.Errorf("%s: MD executed %d instructions >= AM's %d", r.name, r.instrs[0], r.instrs[1])
		}
	}
	// Coarse ordering: wavefront much coarser than the fine-grained
	// four; SS coarser still.
	fineMax := 0.0
	for _, r := range rs[:4] {
		if r.tpq[0] > fineMax {
			fineMax = r.tpq[0]
		}
	}
	wfront, ss := rs[4], rs[5]
	if wfront.tpq[0] < 2*fineMax {
		t.Errorf("wavefront TPQ %.1f not well above fine-grained max %.1f", wfront.tpq[0], fineMax)
	}
	if ss.tpq[0] < 5*wfront.tpq[0] {
		t.Errorf("SS TPQ %.1f not far above wavefront %.1f", ss.tpq[0], wfront.tpq[0])
	}
}

// TestAccessRatios verifies §3.1: on average the MD implementation
// performs fewer reads, writes and instruction fetches than AM (the
// paper reports 86%, 87% and 77%).
func TestAccessRatios(t *testing.T) {
	var sumR, sumW, sumF float64
	var n int
	for _, s := range quick() {
		md := run(t, core.ImplMD, s.Build(s.Arg))
		am := run(t, core.ImplAM, s.Build(s.Arg))
		sumR += float64(md.Tracer.TotalReads()) / float64(am.Tracer.TotalReads())
		sumW += float64(md.Tracer.TotalWrites()) / float64(am.Tracer.TotalWrites())
		sumF += float64(md.Tracer.TotalFetches()) / float64(am.Tracer.TotalFetches())
		n++
	}
	r, w, f := sumR/float64(n), sumW/float64(n), sumF/float64(n)
	if r >= 1.0 || w >= 1.0 || f >= 1.0 {
		t.Errorf("MD/AM access ratios reads=%.2f writes=%.2f fetches=%.2f; all must be < 1", r, w, f)
	}
	if f >= r {
		t.Logf("note: fetch ratio %.2f not below read ratio %.2f (paper has fetches lowest)", f, r)
	}
}

// TestPaperArgsRun exercises every benchmark at its paper argument under
// both backends (the long MMT run is reduced when -short).
func TestPaperArgsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size runs skipped in -short mode")
	}
	for _, s := range All() {
		arg := s.Arg
		if s.Name == "mmt" {
			arg = 20 // full 50 takes ~10s per backend; covered by benches
		}
		for _, impl := range []core.Impl{core.ImplMD, core.ImplAM} {
			run(t, impl, s.Build(arg))
		}
	}
}
