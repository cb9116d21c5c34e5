package experiments

import (
	"reflect"
	"testing"

	"jmtam/internal/cache"
	"jmtam/internal/core"
	"jmtam/internal/trace"
)

var ablationWorkloads = []Workload{{"qs", 40}, {"ss", 40}}

func TestMDOptAblation(t *testing.T) {
	rows, err := MDOptAblation(ablationWorkloads, core.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.InstrOpt == 0 || r.InstrUnopt == 0 {
			t.Errorf("%s: zero instruction counts", r.Program)
		}
		// The optimizations can only remove instructions.
		if r.InstrOpt > r.InstrUnopt {
			t.Errorf("%s: optimized MD executed more instructions (%d > %d)",
				r.Program, r.InstrOpt, r.InstrUnopt)
		}
		if r.RatioOpt > r.RatioUnopt+1e-9 {
			t.Errorf("%s: optimized ratio %.3f above unoptimized %.3f",
				r.Program, r.RatioOpt, r.RatioUnopt)
		}
	}
}

func TestOAMComparison(t *testing.T) {
	rows, err := OAMComparison(ablationWorkloads, core.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.InstrOAM == 0 || r.TPQOAM <= 0 {
			t.Errorf("%s: empty OAM run: %+v", r.Program, r)
		}
		// The hybrid's instruction count sits at or between the two
		// pure implementations (it shares MD's direct transfers and
		// AM's posting machinery).
		if r.InstrOAM < r.InstrMD {
			t.Errorf("%s: OAM executed fewer instructions (%d) than MD (%d)",
				r.Program, r.InstrOAM, r.InstrMD)
		}
	}
}

func TestClassBreakdown(t *testing.T) {
	rows, err := ClassBreakdown(ablationWorkloads, core.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 workloads x 2 impls
		t.Fatalf("got %d rows", len(rows))
	}
	byKey := make(map[string]ClassRow)
	for _, r := range rows {
		if r.SysFetchFrac < 0 || r.SysFetchFrac > 1 {
			t.Errorf("%s/%v: fraction out of range: %+v", r.Program, r.Impl, r)
		}
		byKey[r.Program+r.Impl.Short()] = r
	}
	// The AM implementation spends a larger fraction of its fetches in
	// system code (post routine, scheduler) than MD does — the §3.1
	// control-locality claim at the static-classification level.
	if byKey["qsAM"].SysFetchFrac <= byKey["qsMD"].SysFetchFrac {
		t.Errorf("AM sys-code fetch fraction %.2f not above MD's %.2f",
			byKey["qsAM"].SysFetchFrac, byKey["qsMD"].SysFetchFrac)
	}
	// SS never sends user messages and makes 3 calls total: almost no
	// system traffic under either implementation.
	if byKey["ssMD"].SysFetchFrac > 0.05 {
		t.Errorf("SS MD sys fetch fraction %.2f unexpectedly high", byKey["ssMD"].SysFetchFrac)
	}
}

func TestInstructionMix(t *testing.T) {
	rows, err := InstructionMix([]Workload{{"mmt", 8}}, core.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		sum := r.Memory + r.ALU + r.Float + r.Control + r.Message + r.Machine
		// Move instructions (MOVI/MOVA/MOV/LEA/tag ops) are outside the
		// six groups, so the sum is below 1 but must be the bulk.
		if sum < 0.5 || sum > 1.0+1e-9 {
			t.Errorf("%s/%v: group sum %.2f implausible", r.Program, r.Impl, sum)
		}
		if r.Float <= 0 {
			t.Errorf("%s/%v: MMT has no float instructions?", r.Program, r.Impl)
		}
	}
	// AM pays EI/DI and suspends: its machine fraction exceeds MD's.
	if rows[1].Machine <= rows[0].Machine {
		t.Errorf("AM machine fraction %.3f not above MD's %.3f", rows[1].Machine, rows[0].Machine)
	}
}

func TestPenaltySweepAndCrossover(t *testing.T) {
	ds, err := tinySweep().Execute()
	if err != nil {
		t.Fatal(err)
	}
	pens := []int{12, 48, 500, 5000}
	series := PenaltySweep(ds, 8, 4, pens)
	if len(series) != len(ds.Sweep.Workloads)+1 {
		t.Fatalf("got %d series", len(series))
	}
	for _, s := range series {
		if len(s.Ratios) != len(pens) {
			t.Errorf("series %s has %d points", s.Label, len(s.Ratios))
		}
		for _, r := range s.Ratios {
			if r <= 0 {
				t.Errorf("series %s has non-positive ratio: %v", s.Label, s.Ratios)
				break
			}
		}
	}
	// Per-program, the ratio trend with penalty must match the sign of
	// the miss-count difference: if MD misses more, AM gains as misses
	// get dearer, and vice versa.
	g := ds.GeomIndex(8, 4)
	for _, w := range ds.Sweep.Workloads {
		md := ds.Run(w.Name, core.ImplMD).Caches[g]
		am := ds.Run(w.Name, core.ImplAM).Caches[g]
		mdMiss := md.IMisses + md.DMisses
		amMiss := am.IMisses + am.DMisses
		lo := ds.Ratio(w.Name, 8, 4, pens[0])
		hi := ds.Ratio(w.Name, 8, 4, pens[len(pens)-1])
		switch {
		case mdMiss > amMiss && hi < lo:
			t.Errorf("%s: MD misses more but ratio fell with penalty (%.3f -> %.3f)", w.Name, lo, hi)
		case mdMiss < amMiss && hi > lo:
			t.Errorf("%s: AM misses more but ratio rose with penalty (%.3f -> %.3f)", w.Name, lo, hi)
		}
	}
	// CrossoverPenalty returns -1 when AM never wins, and a candidate
	// penalty when it does; SS's ratio asymptote stays below 1.
	if p := CrossoverPenalty(ds, "ss", 8, 4, pens); p != -1 {
		t.Errorf("SS crossover at %d; MD should win at any penalty", p)
	}
}

// TestVictimSweepMatchesTwoPhase checks every backend's victim-cache
// rows at quick scale against a two-phase reference written here:
// record the whole stream, replay it through the 8K/4-way pair, then
// pass it once per buffer size through an 8K direct-mapped I/D pair of
// victim caches.
func TestVictimSweepMatchesTwoPhase(t *testing.T) {
	var impls []core.Impl
	for _, b := range core.Backends() {
		impls = append(impls, b.Impl)
	}
	ws := QuickWorkloads()
	rows, err := VictimSweep(ws, impls, nil, core.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	direct := cache.Config{SizeBytes: 8 * 1024, BlockBytes: 64, Assoc: 1}
	var want []VictimRow
	for _, w := range ws {
		for _, impl := range impls {
			r, rec, err := RecordOne(w, impl, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			p, err := trace.NewPair(headline)
			if err != nil {
				t.Fatal(err)
			}
			rec.ReplayAll([]trace.Pair{p})
			row := VictimRow{Program: w.Name, Impl: impl.Name(), Entries: VictimEntries,
				SetAssocMisses: p.Misses(), Instructions: r.Instructions}
			for _, n := range VictimEntries {
				vi, err := cache.NewVictim(direct, n)
				if err != nil {
					t.Fatal(err)
				}
				vd, err := cache.NewVictim(direct, n)
				if err != nil {
					t.Fatal(err)
				}
				rec.Do(func(k trace.Kind, addr uint32) {
					if k == trace.KindFetch {
						vi.Access(addr, false)
					} else {
						vd.Access(addr, k == trace.KindWrite)
					}
				})
				row.Misses = append(row.Misses, vi.Stats().Misses+vd.Stats().Misses)
				row.VictimHits = append(row.VictimHits, vi.Stats().VictimHits+vd.Stats().VictimHits)
			}
			want = append(want, row)
		}
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("VictimSweep rows differ from the two-phase reference:\ngot  %+v\nwant %+v", rows, want)
	}
}

// TestVictimSweepRefusesMesh checks that the victim-cache ablation,
// which models one node's caches, refuses a mesh.
func TestVictimSweepRefusesMesh(t *testing.T) {
	if _, err := VictimSweep(ablationWorkloads, nil, nil, core.Options{Nodes: 4}, 2); err == nil {
		t.Error("VictimSweep ran on four nodes")
	}
}
