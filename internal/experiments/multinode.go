package experiments

import (
	"context"

	"jmtam/internal/cache"
	"jmtam/internal/core"
	"jmtam/internal/netsim"
	"jmtam/internal/trace"
)

// RecordCluster simulates one workload on opt.Nodes nodes with a
// per-node trace recording attached, returning the run (cache
// statistics unfilled) and one reference stream per node. Granularity
// statistics are merged across nodes; Run.Ticks carries the elapsed
// lockstep time, the multi-node analogue of a cycle count.
func RecordCluster(w Workload, impl core.Impl, opt core.Options) (*Run, []*trace.Recording, error) {
	cs, err := Build(w, impl, opt)
	if err != nil {
		return nil, nil, err
	}
	defer cs.Close()
	r, recs, err := record(context.Background(), cs, true, nil)
	if err != nil {
		return nil, nil, err
	}
	r.Workload = w
	return r, recs, nil
}

// record runs cs, a built simulation that has not run, with a recording
// on every node, and returns the run, without Workload or caches, and
// each node's recording. With split set, a backend with NIC-offloaded
// inlets records each node's NIC stream into Run.nicRecs. attach, when
// non-nil, gets each node's index and recordings before the run, to
// attach their drains; nic is nil unsplit.
func record(ctx context.Context, cs *core.ClusterSim, split bool, attach func(k int, rec, nic *trace.Recording)) (*Run, []*trace.Recording, error) {
	recs := make([]*trace.Recording, cs.Nodes)
	var nicRecs []*trace.Recording
	if split && cs.Impl.Caps().NICInlets {
		nicRecs = make([]*trace.Recording, cs.Nodes)
	}
	for k, s := range cs.Sims {
		recs[k] = &trace.Recording{}
		s.Tracer = recs[k]
		if nicRecs != nil {
			nicRecs[k] = &trace.Recording{}
			s.NICTracer = nicRecs[k]
		}
		if attach != nil {
			attach(k, s.Tracer, s.NICTracer)
		}
	}
	if err := cs.RunContext(ctx); err != nil {
		return nil, nil, err
	}
	g := cs.MergedGran()
	r := &Run{
		Impl:         cs.Impl,
		Nodes:        cs.Nodes,
		Ticks:        cs.Ticks(),
		Instructions: cs.Instructions(),
		TPQ:          g.TPQ(),
		IPT:          g.IPT(),
		IPQ:          g.IPQ(),
		Threads:      g.Threads,
		Quanta:       g.Quanta,
	}
	for _, rec := range recs {
		r.Counts.Add(&rec.Counts)
	}
	if nicRecs != nil {
		nic := &NICStats{Instructions: cs.HighInstructions(), Config: NICGeom}
		for _, rec := range nicRecs {
			nic.Counts.Add(&rec.Counts)
		}
		r.NIC = nic
		r.nicRecs = nicRecs
	}
	if cs.Obs != nil {
		r.Metrics = cs.Obs.Metrics
		r.Counts.AddTo(r.Metrics, "")
		if r.NIC != nil {
			r.NIC.Counts.AddTo(r.Metrics, "nic.")
		}
	}
	return r, recs, nil
}

// ReplayClusterFanOutContext fills r.Caches by replaying the per-node
// recordings through every geometry: each node gets its own private
// I/D cache pair per geometry (a mesh node owns its caches), and the
// per-node misses are summed into one CacheStats per geometry. It runs
// the same fan-out as ReplayFanOutContext, with one stream per node.
func ReplayClusterFanOutContext(ctx context.Context, r *Run, recs []*trace.Recording, geoms []cache.Config, parallelism int) error {
	return r.replay(ctx, recs, geoms, parallelism)
}

// --- backend ratios versus node count and hop latency ------------------------

// defaultRatioImpls resolves an impl list for the multi-node sweeps:
// nil/empty selects the paper's MD-versus-AM pair. The list is
// reordered into registry (canonical report) order.
func defaultRatioImpls(impls []core.Impl) []core.Impl {
	if len(impls) == 0 {
		impls = paperImpls()
	}
	out := append([]core.Impl(nil), impls...)
	core.SortImpls(out)
	return out
}

func implNames(impls []core.Impl) []string {
	names := make([]string, len(impls))
	for i, impl := range impls {
		names[i] = impl.Name()
	}
	return names
}

// NodeRatioRow compares the swept backends on one mesh size, keyed by
// backend registry name: aggregate cycles (instructions plus miss
// penalties, summed over nodes — the paper's uniprocessor metric
// extended to N processors' total work) and elapsed lockstep ticks
// (wall-clock on the mesh, where idle processors cost time but not
// work). RatioCycles and RatioTicks are MD-relative — MD's total
// divided by the named backend's, so RatioCycles["am"] is the paper's
// MD/AM headline and values above 1 mean the backend beats MD. When MD
// is not among the swept backends the ratio maps are empty.
type NodeRatioRow struct {
	Nodes int
	// Impls lists the swept backend names in registry order; the maps
	// below are keyed by these names.
	Impls       []string
	Cycles      map[string]uint64
	Ticks       map[string]uint64
	RatioCycles map[string]float64
	RatioTicks  map[string]float64
}

// NodeRatioSweep runs every workload under every backend at each node
// count and aggregates per node count: total cycles at the given cache
// geometry and miss penalty, and total elapsed ticks. A nil impls list
// selects {MD, AM}. The len(impls) x len(nodeCounts) x len(ws) cluster
// simulations run on at most parallelism workers (0 = GOMAXPROCS);
// totals accumulate in cell order, so rows are identical at every
// parallelism setting. Node counts must be powers of two (1 selects the
// uniprocessor-equivalent 1-node cluster so elapsed ticks stay
// comparable).
func NodeRatioSweep(ws []Workload, impls []core.Impl, nodeCounts []int, geom cache.Config, penalty int, opt core.Options, parallelism int) ([]NodeRatioRow, error) {
	impls = defaultRatioImpls(impls)
	var cells []cell
	for _, n := range nodeCounts {
		o := opt
		o.Nodes = n
		for _, impl := range impls {
			cells = append(cells, grid(ws, []core.Impl{impl}, o)...)
		}
	}
	runs, err := runCells(context.Background(), cells, []cache.Config{geom}, parallelism, nil)
	if err != nil {
		return nil, err
	}
	names := implNames(impls)
	rows := make([]NodeRatioRow, len(nodeCounts))
	for i, n := range nodeCounts {
		rows[i] = NodeRatioRow{
			Nodes: n, Impls: names,
			Cycles: make(map[string]uint64), Ticks: make(map[string]uint64),
			RatioCycles: make(map[string]float64), RatioTicks: make(map[string]float64),
		}
	}
	perRow := len(impls) * len(ws)
	for i, c := range cells {
		row := &rows[i/perRow]
		row.Cycles[c.impl.Name()] += runs[i].Cycles(0, penalty, false)
		row.Ticks[c.impl.Name()] += runs[i].Ticks
	}
	for i := range rows {
		mdRelative(names, rows[i].Cycles, rows[i].RatioCycles)
		mdRelative(names, rows[i].Ticks, rows[i].RatioTicks)
	}
	return rows, nil
}

// mdRelative fills ratios with MD's total over each backend's, and
// leaves them empty when MD was not swept.
func mdRelative(names []string, totals map[string]uint64, ratios map[string]float64) {
	md, ok := totals[core.ImplMD.Name()]
	if !ok {
		return
	}
	for _, name := range names {
		ratios[name] = ratio64(md, totals[name])
	}
}

// HopRatioRow compares the swept backends at one per-hop routing delay
// on a fixed mesh, keyed by backend registry name: total elapsed ticks
// and their MD-relative ratios (MD's ticks over the named backend's).
// Remote I-structure fetches are themselves active messages, so hop
// latency stretches every backend's split-phase round trips; the ratio
// isolates how each scheduling discipline hides it.
type HopRatioRow struct {
	PerHop uint64
	// Impls lists the swept backend names in registry order; the maps
	// below are keyed by these names.
	Impls      []string
	Ticks      map[string]uint64
	RatioTicks map[string]float64
}

// HopLatencySweep runs every workload under every backend on a
// nodes-sized mesh at each per-hop delay, aggregating elapsed lockstep
// ticks per delay. A nil impls list selects {MD, AM}. The base and
// per-word costs come from the netsim default configuration; only
// PerHop varies.
func HopLatencySweep(ws []Workload, impls []core.Impl, nodes int, perHops []uint64, opt core.Options, parallelism int) ([]HopRatioRow, error) {
	impls = defaultRatioImpls(impls)
	var cells []cell
	for _, perHop := range perHops {
		o := opt
		o.Nodes = nodes
		cfg := netsim.DefaultConfig(nodes)
		cfg.PerHop = perHop
		o.Net = &cfg
		for _, impl := range impls {
			cells = append(cells, grid(ws, []core.Impl{impl}, o)...)
		}
	}
	runs, err := runCells(context.Background(), cells, nil, parallelism, nil)
	if err != nil {
		return nil, err
	}
	names := implNames(impls)
	rows := make([]HopRatioRow, len(perHops))
	for i, h := range perHops {
		rows[i] = HopRatioRow{
			PerHop: h, Impls: names,
			Ticks: make(map[string]uint64), RatioTicks: make(map[string]float64),
		}
	}
	perRow := len(impls) * len(ws)
	for i, c := range cells {
		rows[i/perRow].Ticks[c.impl.Name()] += runs[i].Ticks
	}
	for i := range rows {
		mdRelative(names, rows[i].Ticks, rows[i].RatioTicks)
	}
	return rows, nil
}
