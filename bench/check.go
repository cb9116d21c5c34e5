package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"jmtam/api"
	"jmtam/internal/cache"
	"jmtam/internal/core"
	"jmtam/internal/experiments"
)

// Committed output digests. A run whose outputs hash differently counts
// as failed: a speed-up must leave every simulated statistic identical.
// paper-warm's documents must hash to the paper-cold digest.
const (
	paperDigest      = "f9a17887e64edab37b3d35cc2f69f24ae923313a9028723f805fd4b74595e49c"
	paperQuickDigest = "b115046dc4c2486d2d3f592890c6c07b691e90055ab5737a1da1f15346bdcc0d"
	meshDigest       = "4b12a61de8bbf94f7c57affce8bea9ca72290cb86272229faab2ebae0722ee00"
	meshQuickDigest  = "78c039f9353e859c32ef4f6c1a7ea5f90a97b9ff718e40ef6c9d0f3f85f923c9"
)

// unitOut is one (workload, backend) unit of a sweep: what the digest
// covers.
type unitOut struct {
	program       string
	arg           int
	impl          string // display name, as in result documents
	instructions  uint64
	tpq, ipt, ipq float64
	// caches holds per-geometry I-misses, D-misses and writebacks.
	caches [][3]uint64
}

func writeUnit(h hash.Hash, u unitOut) {
	fmt.Fprintf(h, "%s %d %s %d %x %x %x\n", u.program, u.arg, u.impl, u.instructions,
		math.Float64bits(u.tpq), math.Float64bits(u.ipt), math.Float64bits(u.ipq))
	for _, c := range u.caches {
		fmt.Fprintf(h, "%d %d %d\n", c[0], c[1], c[2])
	}
}

func writeTable2(h hash.Hash, r api.Table2Row) {
	fmt.Fprintf(h, "%s", r.Program)
	for _, x := range []float64{r.TPQMD, r.TPQAM, r.IPTMD, r.IPTAM, r.IPQMD, r.IPQAM, r.Ratio12, r.Ratio24, r.Ratio48} {
		fmt.Fprintf(h, " %x", math.Float64bits(x))
	}
	fmt.Fprintln(h)
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// DatasetDigest hashes a sweep's units in sweep order — instructions,
// TPQ/IPT/IPQ, per-geometry misses and writebacks — and its Table 2.
func DatasetDigest(ds *experiments.Dataset) string {
	h := sha256.New()
	impls := ds.Sweep.Impls
	if len(impls) == 0 {
		impls = []core.Impl{core.ImplMD, core.ImplAM}
	}
	for _, w := range ds.Sweep.Workloads {
		for _, impl := range impls {
			r := ds.Run(w.Name, impl)
			u := unitOut{w.Name, w.Arg, impl.String(), r.Instructions, r.TPQ, r.IPT, r.IPQ, nil}
			for _, c := range r.Caches {
				u.caches = append(u.caches, [3]uint64{c.IMisses, c.DMisses, c.Writebacks})
			}
			writeUnit(h, u)
		}
	}
	for _, r := range experiments.Table2(ds) {
		writeTable2(h, api.Table2Row{Program: r.Program,
			TPQMD: r.TPQMD, TPQAM: r.TPQAM, IPTMD: r.IPTMD, IPTAM: r.IPTAM, IPQMD: r.IPQMD, IPQAM: r.IPQAM,
			Ratio12: r.Ratio12, Ratio24: r.Ratio24, Ratio48: r.Ratio48})
	}
	return sum(h)
}

// CheckSweepDoc verifies a tamsimd sweep document requested with detail
// and the given penalties over the paper grid: its units and Table 2 must
// hash to want, and every cycle count must equal instructions + p × (I +
// D misses).
func CheckSweepDoc(doc *api.SweepResult, penalties []int, want string) error {
	grid := Grid()
	h := sha256.New()
	for _, r := range doc.Runs {
		if len(r.Caches) != len(grid) {
			return fmt.Errorf("%s/%s: %d geometries, want %d", r.Program, r.Impl, len(r.Caches), len(grid))
		}
		u := unitOut{r.Program, r.Arg, r.Impl, r.Instructions, r.TPQ, r.IPT, r.IPQ, nil}
		for g, c := range r.Caches {
			if configOf(c.CacheSpec) != grid[g] {
				return fmt.Errorf("%s/%s: geometry %d is %+v", r.Program, r.Impl, g, c.CacheSpec)
			}
			if err := checkCycles(r.Instructions, c, penalties); err != nil {
				return fmt.Errorf("%s/%s: %w", r.Program, r.Impl, err)
			}
			u.caches = append(u.caches, [3]uint64{c.IMisses, c.DMisses, c.Writebacks})
		}
		writeUnit(h, u)
	}
	for _, r := range doc.Table2 {
		writeTable2(h, r)
	}
	if got := sum(h); got != want {
		return fmt.Errorf("sweep document digest %s, want %s", got, want)
	}
	return nil
}

func checkCycles(instr uint64, c api.CacheResult, penalties []int) error {
	if len(c.Cycles) != len(penalties) {
		return fmt.Errorf("%d cycle counts for %d penalties", len(c.Cycles), len(penalties))
	}
	for i, cc := range c.Cycles {
		p := penalties[i]
		if want := instr + uint64(p)*(c.IMisses+c.DMisses); cc.Penalty != p || cc.Cycles != want {
			return fmt.Errorf("cycles at penalty %d: got %d at %d, want %d", p, cc.Cycles, cc.Penalty, want)
		}
	}
	return nil
}

func configOf(c api.CacheSpec) cache.Config {
	return cache.Config{SizeBytes: c.SizeKB * 1024, BlockBytes: c.BlockBytes, Assoc: c.Assoc}
}

// NodeRowsDigest hashes node-ratio rows: per backend, total cycles,
// ticks and both MD-relative ratios.
func NodeRowsDigest(rows []experiments.NodeRatioRow) string {
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(h, "nodes %d\n", r.Nodes)
		for _, name := range r.Impls {
			fmt.Fprintf(h, "%s %d %d %x %x\n", name, r.Cycles[name], r.Ticks[name],
				math.Float64bits(r.RatioCycles[name]), math.Float64bits(r.RatioTicks[name]))
		}
	}
	return sum(h)
}

// runRef is the reference outcome of one serve-open descriptor over the
// whole grid, computed in set-up from the simulator directly.
type runRef struct {
	instructions, reads, writes uint64
	caches                      []experiments.CacheStats // Grid order
	refs                        int                      // recorded references
}

// CheckRunDoc verifies a tamsimd run document against the request that
// produced it and the descriptor's reference outcome.
func CheckRunDoc(doc *api.RunResult, j ServeJob, ref *runRef) error {
	impl, err := core.ParseImpl(j.Impl)
	if err != nil {
		return err
	}
	if doc.Program != j.Program || doc.Arg != j.Arg || doc.Impl != impl.String() {
		return fmt.Errorf("document is %s/%d/%s, requested %s/%d/%s", doc.Program, doc.Arg, doc.Impl, j.Program, j.Arg, impl)
	}
	if doc.Instructions != ref.instructions || doc.Reads != ref.reads || doc.Writes != ref.writes {
		return fmt.Errorf("%s/%d/%s: instructions/reads/writes %d/%d/%d, want %d/%d/%d", j.Program, j.Arg, j.Impl,
			doc.Instructions, doc.Reads, doc.Writes, ref.instructions, ref.reads, ref.writes)
	}
	if len(doc.Caches) != len(j.Geoms) {
		return fmt.Errorf("%d geometries, requested %d", len(doc.Caches), len(j.Geoms))
	}
	grid := Grid()
	for i, g := range j.Geoms {
		c, want := doc.Caches[i], ref.caches[g]
		if configOf(c.CacheSpec) != grid[g] {
			return fmt.Errorf("geometry %d is %+v, requested %v", i, c.CacheSpec, grid[g])
		}
		if c.IMisses != want.IMisses || c.DMisses != want.DMisses || c.Writebacks != want.Writebacks {
			return fmt.Errorf("%s/%d/%s %v: misses %d/%d/%d, want %d/%d/%d", j.Program, j.Arg, j.Impl, grid[g],
				c.IMisses, c.DMisses, c.Writebacks, want.IMisses, want.DMisses, want.Writebacks)
		}
		if err := checkCycles(doc.Instructions, c, j.Penalties); err != nil {
			return err
		}
	}
	return nil
}
