package experiments

import (
	"context"
	"fmt"

	"jmtam/internal/cache"
	"jmtam/internal/core"
	"jmtam/internal/isa"
	"jmtam/internal/mem"
	"jmtam/internal/trace"
)

// MDOptRow compares the MD implementation with and without the §2.3
// static optimizations (register argument passing across direct posts,
// inlet-to-thread fall-through placement, and stop-to-suspend conversion
// for statically-empty LCVs) on one workload.
type MDOptRow struct {
	Program string
	// Dynamic instruction counts.
	InstrOpt, InstrUnopt uint64
	// MD/AM total-cycle ratios at the headline geometry (8K 4-way,
	// miss 24), with and without the optimizations.
	RatioOpt, RatioUnopt float64
}

// OAMRow compares the three schedulable implementations on one workload
// at the headline geometry (8K 4-way), reporting instruction counts,
// granularity and MD-relative / AM-relative cycle ratios at miss 24.
type OAMRow struct {
	Program                    string
	InstrMD, InstrOAM, InstrAM uint64
	TPQMD, TPQOAM, TPQAM       float64
	OAMOverAM, MDOverAM        float64
}

// OAMComparison evaluates the Optimistic-Active-Messages-style hybrid of
// §2.4 ([KWW+94]): message-driven direct control transfer for short
// threads, Active Messages posting and frame scheduling for long ones,
// with all user handlers at low priority. The 3*len(ws) simulations run
// on at most parallelism workers (0 = GOMAXPROCS).
func OAMComparison(ws []Workload, opt core.Options, parallelism int) ([]OAMRow, error) {
	cells := grid(ws, []core.Impl{core.ImplMD, core.ImplOAM, core.ImplAM}, opt)
	all, err := runCells(context.Background(), cells, []cache.Config{headline}, parallelism, nil)
	if err != nil {
		return nil, err
	}
	var rows []OAMRow
	for wi, w := range ws {
		runs := all[3*wi : 3*wi+3]
		amCycles := runs[2].Cycles(0, 24, false)
		rows = append(rows, OAMRow{
			Program:   w.Name,
			InstrMD:   runs[0].Instructions,
			InstrOAM:  runs[1].Instructions,
			InstrAM:   runs[2].Instructions,
			TPQMD:     runs[0].TPQ,
			TPQOAM:    runs[1].TPQ,
			TPQAM:     runs[2].TPQ,
			OAMOverAM: ratio64(runs[1].Cycles(0, 24, false), amCycles),
			MDOverAM:  ratio64(runs[0].Cycles(0, 24, false), amCycles),
		})
	}
	return rows, nil
}

// MDOptAblation quantifies what the §2.3 optimizations buy the MD
// implementation. The paper presents them as the conventional-compiler
// opportunities that open up once an inlet passes control directly to
// its thread; this ablation measures their dynamic effect. The
// 3*len(ws) simulations run on at most parallelism workers
// (0 = GOMAXPROCS).
func MDOptAblation(ws []Workload, opt core.Options, parallelism int) ([]MDOptRow, error) {
	noOpt := opt
	noOpt.NoMDOptimize = true
	var cells []cell
	for _, w := range ws {
		cells = append(cells, cell{w, core.ImplAM, opt}, cell{w, core.ImplMD, opt},
			cell{w, core.ImplMD, noOpt})
	}
	all, err := runCells(context.Background(), cells, []cache.Config{headline}, parallelism, nil)
	if err != nil {
		return nil, err
	}
	var rows []MDOptRow
	for wi, w := range ws {
		am, mdOpt, mdUnopt := all[3*wi], all[3*wi+1], all[3*wi+2]
		amCycles := am.Cycles(0, 24, false)
		rows = append(rows, MDOptRow{
			Program:    w.Name,
			InstrOpt:   mdOpt.Instructions,
			InstrUnopt: mdUnopt.Instructions,
			RatioOpt:   ratio64(mdOpt.Cycles(0, 24, false), amCycles),
			RatioUnopt: ratio64(mdUnopt.Cycles(0, 24, false), amCycles),
		})
	}
	return rows, nil
}

// ClassRow reports one implementation's reference mix by the paper's
// §3.1 memory division: system code (runtime and library), user code
// (the program's inlets and threads), system data (message queues,
// operating-system globals and the LCV), and user data (frames and
// heap).
type ClassRow struct {
	Program string
	Impl    core.Impl
	// Fractions of that implementation's own totals.
	SysFetchFrac           float64
	SysReadFrac            float64
	SysWriteFrac           float64
	Fetches, Reads, Writes uint64
}

// ClassBreakdown computes the system/user reference mix for both
// implementations of each workload, on at most parallelism workers
// (0 = GOMAXPROCS).
func ClassBreakdown(ws []Workload, opt core.Options, parallelism int) ([]ClassRow, error) {
	runs, err := runCells(context.Background(), grid(ws, paperImpls(), opt), nil, parallelism, nil)
	if err != nil {
		return nil, err
	}
	rows := make([]ClassRow, len(runs))
	for i, r := range runs {
		c := r.Counts
		row := ClassRow{
			Program: r.Workload.Name, Impl: r.Impl,
			Fetches: c.TotalFetches(), Reads: c.TotalReads(), Writes: c.TotalWrites(),
		}
		row.SysFetchFrac = ratio64(c.Fetches[mem.ClassSysCode], row.Fetches)
		row.SysReadFrac = ratio64(c.Reads[mem.ClassSysData], row.Reads)
		row.SysWriteFrac = ratio64(c.Writes[mem.ClassSysData], row.Writes)
		rows[i] = row
	}
	return rows, nil
}

// MixRow reports the dynamic instruction mix of one (workload,
// implementation) run, grouped into the categories a runtime-systems
// reader cares about.
type MixRow struct {
	Program string
	Impl    core.Impl
	Total   uint64
	// Fractions of Total.
	Memory, ALU, Float, Control, Message, Machine float64
}

// InstructionMix computes the dynamic instruction mix for both primary
// implementations of each workload, on at most parallelism workers
// (0 = GOMAXPROCS). The AM implementation's larger control and memory
// fractions are its scheduling hierarchy at work. The simulations
// record nothing: the mix needs only opcode counts.
func InstructionMix(ws []Workload, opt core.Options, parallelism int) ([]MixRow, error) {
	cells := grid(ws, paperImpls(), opt)
	rows := make([]MixRow, len(cells))
	err := simulate(cells, parallelism, func(i int, cs *core.ClusterSim) {
		var counts [isa.NumOps]uint64
		for _, s := range cs.Sims {
			for op, n := range s.M.OpCounts() {
				counts[op] += n
			}
		}
		row := MixRow{Program: cells[i].w.Name, Impl: cells[i].impl, Total: cs.Instructions()}
		for op := isa.Op(0); op < isa.NumOps; op++ {
			f := ratio64(counts[op], row.Total)
			switch op.Class() {
			case "mem":
				row.Memory += f
			case "alu":
				row.ALU += f
			case "float":
				row.Float += f
			case "control":
				row.Control += f
			case "msg":
				row.Message += f
			case "machine":
				row.Machine += f
			}
		}
		rows[i] = row
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// VictimRow reports one (workload, implementation) run of the
// victim-cache ablation: total misses (I + D) under an 8K direct-mapped
// cache pair backed by victim buffers of each candidate size, plus the
// 8K 4-way set-associative baseline the paper's headline geometry uses.
type VictimRow struct {
	Program string
	Impl    string // registry wire name
	Entries []int  // victim buffer sizes, Misses/VictimHits index-aligned
	// Per-entry-count combined I+D statistics of the direct-mapped +
	// victim hierarchy.
	Misses     []uint64
	VictimHits []uint64
	// Combined I+D misses at 8K 4-way — the fully set-associative
	// comparison point.
	SetAssocMisses uint64
	Instructions   uint64
}

// VictimEntries is the default victim-buffer size ladder.
var VictimEntries = []int{0, 1, 2, 4, 8}

// VictimSweep runs the victim-cache ablation: every workload under
// every requested backend (nil = the registry's MD and AM) replays its
// compute stream, while it records, through the 8K 4-way baseline and
// through an 8K direct-mapped cache pair backed by victim buffers of
// each size in entries (nil = VictimEntries). A direct-mapped cache
// whose conflict misses a few victim entries recover explains a
// set-associativity gap as mapping conflicts; a residual gap is working
// set. Rows come back workload-major in registry order. The len(ws) *
// len(impls) simulations run on at most parallelism workers
// (0 = GOMAXPROCS), each on one node.
func VictimSweep(ws []Workload, impls []core.Impl, entries []int, opt core.Options, parallelism int) ([]VictimRow, error) {
	if opt.Nodes > 1 {
		return nil, fmt.Errorf("experiments: VictimSweep runs one node, not %d", opt.Nodes)
	}
	impls = defaultRatioImpls(impls)
	if entries == nil {
		entries = VictimEntries
	}
	direct := cache.Config{SizeBytes: 8 * 1024, BlockBytes: 64, Assoc: 1}
	cells := grid(ws, impls, opt)
	rows := make([]VictimRow, len(cells))
	err := forEachCell(context.Background(), cells, parallelism, func(i int) error {
		vs := make([][2]*cache.Victim, len(entries)) // I and D per size
		for ei, n := range entries {
			for j := range vs[ei] {
				var err error
				if vs[ei][j], err = cache.NewVictim(direct, n); err != nil {
					return err
				}
			}
		}
		// The compute stream passes each chunk through one size's pair
		// at a time, so that pair stays in cache while it takes the
		// chunk; a NIC stream reaches no victim pair.
		r, _, err := cells[i].run(context.Background(), nil, []cache.Config{headline}, func(_ int, nic bool, refs []uint32) {
			if nic {
				return
			}
			for _, v := range vs {
				for _, w := range refs {
					if k, addr := trace.Decode(w); k == trace.KindFetch {
						v[0].Access(addr, false)
					} else {
						v[1].Access(addr, k == trace.KindWrite)
					}
				}
			}
		})
		if err != nil {
			return err
		}
		row := VictimRow{
			Program:        cells[i].w.Name,
			Impl:           cells[i].impl.Name(),
			Entries:        entries,
			Misses:         make([]uint64, len(entries)),
			VictimHits:     make([]uint64, len(entries)),
			SetAssocMisses: r.Caches[0].IMisses + r.Caches[0].DMisses,
			Instructions:   r.Instructions,
		}
		for ei, v := range vs {
			row.Misses[ei] = v[0].Stats().Misses + v[1].Stats().Misses
			row.VictimHits[ei] = v[0].Stats().VictimHits + v[1].Stats().VictimHits
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PenaltySweep derives, from an existing dataset, the MD/AM cycle ratio
// as a function of miss penalty at one cache geometry — one series per
// workload plus the geometric mean. Because penalties are applied
// analytically to recorded miss counts, any penalty can be evaluated
// without re-simulation. The X values of the returned Series are the
// penalties (not cache sizes).
func PenaltySweep(d *Dataset, sizeKB, assoc int, penalties []int) []Series {
	var out []Series
	for _, w := range d.Sweep.Workloads {
		out = append(out, curve(w.Name, penalties,
			func(p int) float64 { return d.Ratio(w.Name, sizeKB, assoc, p) }))
	}
	return append(out, curve("geomean", penalties,
		func(p int) float64 { return d.GeoMeanRatio(sizeKB, assoc, p) }))
}

// CrossoverPenalty returns the smallest penalty from the candidates at
// which the workload's MD/AM ratio reaches or exceeds 1 (AM wins), or -1
// if it never does. The paper finds AM strongest "when miss penalties
// are high"; this quantifies where that happens in this model.
func CrossoverPenalty(d *Dataset, name string, sizeKB, assoc int, candidates []int) int {
	for _, p := range candidates {
		if d.Ratio(name, sizeKB, assoc, p) >= 1 {
			return p
		}
	}
	return -1
}
