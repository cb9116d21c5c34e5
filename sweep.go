package jmtam

import (
	"strconv"

	"jmtam/internal/experiments"
	"jmtam/internal/report"
)

// Sweep re-exports the full-evaluation driver: it runs a set of
// workloads under the configured backends (Sweep.Impls, default
// {MD, AM}) across a grid of cache geometries and derives the paper's
// tables and figures. Each simulation replays its reference streams
// through every geometry of the grid while it records them, in one
// pass of the replay kernel, so no whole trace is held. Set
// Sweep.Parallelism to bound how many simulations run at once
// (0 = GOMAXPROCS). Results are identical at every setting.
type (
	Sweep    = experiments.Sweep
	Dataset  = experiments.Dataset
	Workload = experiments.Workload
	Series   = experiments.Series
)

// Multi-node comparison re-exports: NodeRatioSweep runs every workload
// under each requested backend (any name in the core registry; nil
// selects {MD, AM}) at each mesh size and aggregates the MD-relative
// cycle and elapsed-lockstep-tick ratios; HopLatencySweep varies
// the mesh's per-hop routing delay at a fixed node count. Set
// Sweep.Options.Nodes to add a nodes axis to the full cache-geometry
// sweep instead (Table 2 at any mesh size).
type (
	NodeRatioRow = experiments.NodeRatioRow
	HopRatioRow  = experiments.HopRatioRow
)

// NodeRatioSweep compares backends across mesh sizes (nil impls
// selects {MD, AM}); see experiments.NodeRatioSweep.
func NodeRatioSweep(ws []Workload, impls []Impl, nodeCounts []int, geom CacheConfig, penalty int, opt Options, parallelism int) ([]NodeRatioRow, error) {
	return experiments.NodeRatioSweep(ws, impls, nodeCounts, geom, penalty, opt, parallelism)
}

// HopLatencySweep compares backends across per-hop routing delays on
// a fixed mesh (nil impls selects {MD, AM}); see
// experiments.HopLatencySweep.
func HopLatencySweep(ws []Workload, impls []Impl, nodes int, perHops []uint64, opt Options, parallelism int) ([]HopRatioRow, error) {
	return experiments.HopLatencySweep(ws, impls, nodes, perHops, opt, parallelism)
}

// ReportNodeRatios renders the node-count comparison table.
func ReportNodeRatios(rows []NodeRatioRow) string { return report.NodeRatios(rows) }

// ReportHopLatency renders the hop-latency comparison table.
func ReportHopLatency(rows []HopRatioRow) string { return report.HopLatency(rows) }

// NewPaperSweep returns the paper's full parameter space (cache sizes
// 1K-128K, associativities 1/2/4, 64-byte blocks, miss penalties
// 12/24/48) over the paper's benchmark arguments. This is the expensive
// configuration; NewQuickSweep preserves the shape at a fraction of the
// cost.
func NewPaperSweep() *Sweep {
	return experiments.DefaultSweep(experiments.PaperWorkloads())
}

// NewQuickSweep returns the same parameter space over reduced benchmark
// sizes.
func NewQuickSweep() *Sweep {
	return experiments.DefaultSweep(experiments.QuickWorkloads())
}

// ReportTable2 renders the dataset's Table 2 (granularity and MD/AM
// cycle ratios at 8K 4-way caches with miss costs 12/24/48).
func ReportTable2(d *Dataset) string {
	return report.Table2(experiments.Table2(d))
}

// ReportAccessRatios renders the §3.1 MD/AM reference-count ratios.
func ReportAccessRatios(d *Dataset) string {
	return report.AccessRatios(experiments.AccessRatios(d))
}

// ReportFigure3 renders the geometric-mean ratio charts (one per miss
// penalty, curves per associativity).
func ReportFigure3(d *Dataset) string {
	var out string
	for _, p := range d.Sweep.Penalties {
		out += report.Chart(figTitle("Figure 3: geomean MD/AM cycle ratio", p), experiments.Figure3(d)[p])
	}
	return out
}

// ReportFigure4 renders per-program ratio charts for 4-way caches.
func ReportFigure4(d *Dataset) string {
	var out string
	for _, p := range d.Sweep.Penalties {
		out += report.Chart(figTitle("Figure 4: per-program ratio, 4-way", p), experiments.Figure4(d)[p])
	}
	return out
}

// ReportFigure5 renders per-program ratio charts for direct-mapped
// caches.
func ReportFigure5(d *Dataset) string {
	var out string
	for _, p := range d.Sweep.Penalties {
		out += report.Chart(figTitle("Figure 5: per-program ratio, direct-mapped", p), experiments.Figure5(d)[p])
	}
	return out
}

// ReportFigure6 renders the direct-mapped geometric means excluding
// selection sort.
func ReportFigure6(d *Dataset) string {
	return report.Chart("Figure 6: direct-mapped geomean excluding SS", experiments.Figure6(d))
}

func figTitle(base string, penalty int) string {
	return base + " (hit=1, miss=" + strconv.Itoa(penalty) + " cycles)"
}
