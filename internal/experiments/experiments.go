// Package experiments regenerates the paper's evaluation artifacts:
// Table 2 (granularity and cycle ratios), Figures 3-6 (MD/AM cycle
// ratios across cache geometries), the §3.1 access-count ratios, the
// Figure 2 enabled/unenabled-AM ablation, and a block-size ablation.
//
// One simulation per (program, implementation) records the reference
// stream once, and am and offload share one (see twins); each node's
// stream replays through every cache geometry in one pass while the
// simulation records it, a chunk at a time, so no grid holds a whole
// trace. Total cycles for each
// miss penalty are derived from the miss counts, exactly as in a
// trace-driven simulator where penalties do not affect replacement.
// Simulations run on a bounded worker pool; a sweep's Dataset keys its
// runs by backend name (registry order, core.Backends) and is
// identical at every parallelism setting.
package experiments

import (
	"context"
	"fmt"
	"sync/atomic"

	"jmtam/internal/cache"
	"jmtam/internal/core"
	"jmtam/internal/mem"
	"jmtam/internal/obs"
	"jmtam/internal/parallel"
	"jmtam/internal/programs"
	"jmtam/internal/stats"
	"jmtam/internal/trace"
)

// Workload names a benchmark instance.
type Workload struct {
	Name string
	Arg  int
}

// PaperWorkloads returns the six benchmarks at the paper's arguments
// (MMT 50, QS 100, DTW 10, paraffins 13, wavefront 40, SS 100).
func PaperWorkloads() []Workload {
	var ws []Workload
	for _, s := range programs.All() {
		ws = append(ws, Workload{s.Name, s.Arg})
	}
	return ws
}

// QuickWorkloads returns reduced-size instances that preserve each
// benchmark's granularity profile, for fast runs and tests.
func QuickWorkloads() []Workload {
	return []Workload{
		{"mmt", 10}, {"qs", 60}, {"dtw", 8},
		{"paraffins", 10}, {"wavefront", 16}, {"ss", 60},
	}
}

// Sweep describes a full evaluation: which workloads to run and which
// cache geometries and miss penalties to evaluate.
type Sweep struct {
	Workloads []Workload
	// SizesKB lists cache sizes in Kbytes (paper: 1..128).
	SizesKB []int
	// Assocs lists set associativities (paper: 1, 2, 4).
	Assocs []int
	// BlockBytes is the line size (paper shows 64, "the size at which
	// both systems performed best").
	BlockBytes int
	// Penalties lists miss costs in cycles (paper: 12, 24, 48).
	Penalties []int
	// Impls defaults to {MD, AM}.
	Impls []core.Impl
	// Options passes through to the simulator. Every simulation shares
	// an Obs sink set here, so they then run one at a time.
	Options core.Options
	// Parallelism bounds the number of concurrently executing
	// simulations, each replaying its own streams (0 = GOMAXPROCS).
	// Results are
	// byte-identical at every setting: runs are assembled by position,
	// never by completion order.
	Parallelism int
	// CollectMetrics attaches a metrics-only observability sink to every
	// simulation (one per run, so parallel jobs never share registries)
	// and attributes cache misses per geometry during replay. Each Run's
	// registry lands in Run.Metrics. Simulation results are unaffected.
	CollectMetrics bool
	// OnProgress, when non-nil, is invoked after each (workload,
	// implementation) simulation-plus-replay completes. It may be called
	// concurrently from pool workers; implementations must be their own
	// synchronization. Progress reporting never affects results.
	OnProgress func(p Progress)
}

// Progress describes one completed (workload, implementation) run
// within a sweep: Done runs out of Total have finished, the latest
// being Workload under Impl.
type Progress struct {
	Done, Total int
	Workload    Workload
	Impl        core.Impl
}

// DefaultSweep returns the paper's full parameter space over the given
// workloads.
func DefaultSweep(ws []Workload) *Sweep {
	return &Sweep{
		Workloads:  ws,
		SizesKB:    []int{1, 2, 4, 8, 16, 32, 64, 128},
		Assocs:     []int{1, 2, 4},
		BlockBytes: 64,
		Penalties:  []int{12, 24, 48},
		Impls:      paperImpls(),
	}
}

// paperImpls returns the paper's pair, {MD, AM}: the backends every
// sweep and ablation runs unless told otherwise.
func paperImpls() []core.Impl { return []core.Impl{core.ImplMD, core.ImplAM} }

// Run holds the outcome of one (workload, implementation) simulation.
type Run struct {
	Workload Workload
	Impl     core.Impl

	// Nodes is the mesh size the workload ran on (1 = uniprocessor),
	// and Ticks the elapsed lockstep time: one instruction per node per
	// tick, so instructions + 1 on one node.
	Nodes int
	Ticks uint64

	Instructions    uint64
	Counts          trace.Counts
	TPQ, IPT, IPQ   float64
	Threads, Quanta uint64

	// Caches holds per-geometry miss statistics, indexed as the
	// sweep's geometries (size-major, then associativity).
	Caches []CacheStats

	// NIC carries the NIC engine's share for backends with NIC-offloaded
	// inlets (Caps.NICInlets): the high-priority instructions executed on
	// the engine and the miss statistics of its private I/D cache pair
	// (one pair per node, misses summed). Nil for other backends.
	NIC *NICStats

	// Metrics is this run's observability registry when the sweep ran
	// with CollectMetrics (or an Obs sink was passed in Options); nil
	// otherwise. Replay fills per-geometry cache.miss.* attribution
	// into it.
	Metrics *obs.Registry

	// nicRecs holds the NIC engine's recorded reference streams (one per
	// node) between RecordCluster and its replay, which consumes them
	// into NIC's miss statistics.
	nicRecs []*trace.Recording
}

// NICStats captures the NIC engine's share of an offloaded run. The
// engine runs inlets and system handlers concurrently with the compute
// pipeline, against its own small cache pair (Config); the cycle model
// takes the slower of the two engines per geometry.
type NICStats struct {
	Instructions uint64
	Counts       trace.Counts
	Config       cache.Config
	IMisses      uint64
	DMisses      uint64
	Writebacks   uint64
}

// NICGeom is the NIC engine's private cache geometry: 4 KB, 64-byte
// blocks, direct-mapped.
var NICGeom = cache.Config{SizeBytes: 4 * 1024, BlockBytes: 64, Assoc: 1}

// headline is the paper's headline geometry: 8 KB, 64-byte blocks,
// 4-way.
var headline = cache.Config{SizeBytes: 8 * 1024, BlockBytes: 64, Assoc: 4}

// CacheStats captures one geometry's outcome.
type CacheStats struct {
	Config     cache.Config
	IMisses    uint64
	DMisses    uint64
	Writebacks uint64
}

// Cycles returns total cycles under the given miss penalty. For
// NIC-offload runs the compute pipeline executes only the low-priority
// share of the instructions while the NIC engine runs the rest against
// its own caches; the two proceed concurrently, so completion is
// bounded by the slower engine.
func (r *Run) Cycles(geom int, penalty int, countWB bool) uint64 {
	c := r.Caches[geom]
	instr := r.Instructions
	if r.NIC != nil && r.NIC.Instructions < instr {
		instr -= r.NIC.Instructions
	}
	cycles := instr + uint64(penalty)*(c.IMisses+c.DMisses)
	if countWB {
		cycles += uint64(penalty) * c.Writebacks
	}
	if r.NIC != nil {
		nic := r.NIC.Instructions + uint64(penalty)*(r.NIC.IMisses+r.NIC.DMisses)
		if countWB {
			nic += uint64(penalty) * r.NIC.Writebacks
		}
		if nic > cycles {
			cycles = nic
		}
	}
	return cycles
}

// Dataset is the outcome of a sweep: one Run per workload per
// implementation, plus the geometry index.
type Dataset struct {
	Sweep *Sweep
	// Geoms lists the cache geometries in index order.
	Geoms []cache.Config
	// Runs[workloadName][backendName] keys runs by the backend's
	// canonical registry name ("md", "am", ...), never by position in
	// Sweep.Impls.
	Runs map[string]map[string]*Run
}

// Run returns the run for (workload, backend), or nil.
func (d *Dataset) Run(name string, impl core.Impl) *Run {
	return d.Runs[name][impl.Name()]
}

// GeomIndex returns the geometry index for (sizeKB, assoc), or -1.
func (d *Dataset) GeomIndex(sizeKB, assoc int) int {
	for i, g := range d.Geoms {
		if g.SizeBytes == sizeKB*1024 && g.Assoc == assoc {
			return i
		}
	}
	return -1
}

// Ratio returns the MD/AM total-cycle ratio for one workload at one
// geometry and penalty — the paper's headline metric. Like the paper,
// it charges misses only, not writebacks.
func (d *Dataset) Ratio(name string, sizeKB, assoc, penalty int) float64 {
	g := d.GeomIndex(sizeKB, assoc)
	if g < 0 {
		return 0
	}
	md := d.Run(name, core.ImplMD)
	am := d.Run(name, core.ImplAM)
	if md == nil || am == nil {
		return 0
	}
	return ratio64(md.Cycles(g, penalty, false), am.Cycles(g, penalty, false))
}

// GeoMeanRatio returns the geometric mean of the MD/AM ratio across
// workloads, optionally excluding some programs (Figure 6 excludes
// selection sort).
func (d *Dataset) GeoMeanRatio(sizeKB, assoc, penalty int, exclude ...string) float64 {
	skip := make(map[string]bool, len(exclude))
	for _, e := range exclude {
		skip[e] = true
	}
	var xs []float64
	for _, w := range d.Sweep.Workloads {
		if skip[w.Name] {
			continue
		}
		xs = append(xs, d.Ratio(w.Name, sizeKB, assoc, penalty))
	}
	return stats.GeoMean(xs)
}

// Execute runs every workload under every implementation. Each
// (workload, implementation) simulation replays its reference stream
// through every geometry while it records it (see runCells). The
// simulations run on a bounded worker pool (see Sweep.Parallelism),
// and results are assembled by position so the Dataset is identical at
// every parallelism setting. The first error
// cancels outstanding work. Execute does not mutate the receiver, so a
// shared *Sweep is safe to execute concurrently and repeatedly.
func (s *Sweep) Execute() (*Dataset, error) {
	return s.ExecuteContext(context.Background())
}

// ExecuteContext is Execute with cooperative cancellation: simulations
// poll the context in their step loops, and unclaimed jobs are
// abandoned once it is cancelled, so
// a cancelled sweep returns (with an error wrapping ctx.Err()) within
// one machine.CancelCheckInterval.
func (s *Sweep) ExecuteContext(ctx context.Context) (*Dataset, error) {
	// Resolve defaults into locals rather than onto the receiver.
	impls := s.Impls
	if len(impls) == 0 {
		impls = paperImpls()
	}
	var geoms []cache.Config
	for _, kb := range s.SizesKB {
		for _, a := range s.Assocs {
			geoms = append(geoms, cache.Config{SizeBytes: kb * 1024, BlockBytes: s.BlockBytes, Assoc: a})
		}
	}
	cells := grid(s.Workloads, impls, s.Options)
	if s.CollectMetrics && s.Options.Obs == nil {
		// One metrics-only sink per cell, so the cells stay parallel.
		for i := range cells {
			cells[i].opt.Obs = obs.New()
		}
	}
	var done atomic.Int64
	runs, err := runCells(ctx, cells, geoms, s.Parallelism, func(i int) {
		if s.OnProgress != nil {
			s.OnProgress(Progress{int(done.Add(1)), len(cells), cells[i].w, cells[i].impl})
		}
	})
	if err != nil {
		return nil, err
	}

	ds := &Dataset{Sweep: s, Geoms: geoms, Runs: make(map[string]map[string]*Run)}
	for i, c := range cells {
		if ds.Runs[c.w.Name] == nil {
			ds.Runs[c.w.Name] = make(map[string]*Run)
		}
		ds.Runs[c.w.Name][c.impl.Name()] = runs[i]
	}
	return ds, nil
}

// cell is one simulation of an experiment's grid: a workload under a
// backend with its options.
type cell struct {
	w    Workload
	impl core.Impl
	opt  core.Options
}

// grid returns one cell per workload per backend, workload-major, each
// with opt.
func grid(ws []Workload, impls []core.Impl, opt core.Options) []cell {
	cells := make([]cell, 0, len(ws)*len(impls))
	for _, w := range ws {
		for _, impl := range impls {
			cells = append(cells, cell{w, impl, opt})
		}
	}
	return cells
}

// runCells is the grid runner every experiment shares. It simulates
// each cell and replays its streams through geoms while they record
// (see Simulate); with no geometries it only records. Twin cells (see
// twins) share one simulation. Cells run on one pool of at most
// parallelism workers (0 = GOMAXPROCS). Runs come back in cell order,
// so they are identical at every parallelism. done, when non-nil, is
// called with each finished cell's index, possibly concurrently.
// Geometry errors surface before any simulation; the first cell error,
// which names its cell, cancels the cells not yet started.
func runCells(ctx context.Context, cells []cell, geoms []cache.Config, parallelism int, done func(i int)) ([]*Run, error) {
	if err := validate(geoms); err != nil {
		return nil, err
	}
	twin := twins(cells)
	runs := make([]*Run, len(cells))
	err := forEachCell(ctx, cells, parallelism, func(i int) error {
		var tw *cell
		if j := twin[i]; j >= 0 {
			if !cells[i].impl.Caps().NICInlets {
				return nil // the twin's simulation serves this cell
			}
			tw = &cells[j]
		}
		r, t, err := cells[i].run(ctx, tw, geoms, nil)
		if err != nil {
			return err
		}
		runs[i] = r
		if t != nil {
			runs[twin[i]] = t
		}
		if done != nil {
			done(i)
			if t != nil {
				done(twin[i])
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// twins pairs the cells that can share one simulation: the same
// workload and options, no observability sink, and backends whose
// capabilities differ only in NICInlets (am and offload). The backend
// with NIC-offloaded inlets runs the other's exact instruction stream
// and only records it into two streams instead of one, so its
// simulation serves both cells, and its two streams, in the order the
// machine appends to them, are the other's one. twin[i] is the index
// of the cell paired with cell i, or -1.
func twins(cells []cell) []int {
	twin := make([]int, len(cells))
	for i := range twin {
		twin[i] = -1
	}
	for i, nic := range cells {
		if !nic.impl.Caps().NICInlets || nic.opt.Obs != nil {
			continue
		}
		for j, c := range cells {
			if twin[j] < 0 && shares(nic, c) {
				twin[i], twin[j] = j, i
				break
			}
		}
	}
	return twin
}

// shares reports whether the simulation of nic, a cell with
// NIC-offloaded inlets, serves cell c too. Active Access is left out:
// its delivery-time service records into the compute stream from
// outside the machine, past the switches that order the two streams.
func shares(nic, c cell) bool {
	nc, cc := nic.impl.Caps(), c.impl.Caps()
	if cc.NICInlets || nc.DirectAccess || nic.w != c.w || nic.opt != c.opt {
		return false
	}
	cc.NICInlets = true
	return cc == nc
}

// forEachCell calls fn for every cell on at most par workers. When
// any two cells share an observability sink, the cells run one at a
// time, in cell order, and sum into it, as the nodes of one mesh do;
// cells with their own sinks, or none, run in parallel. An error names
// its cell.
func forEachCell(ctx context.Context, cells []cell, par int, fn func(i int) error) error {
	seen := make(map[*obs.Sink]bool)
	for _, c := range cells {
		if c.opt.Obs != nil && seen[c.opt.Obs] {
			par = 1
		}
		seen[c.opt.Obs] = true
	}
	return parallel.ForEachContext(ctx, par, len(cells), func(i int) error {
		if err := fn(i); err != nil {
			return fmt.Errorf("%s/%s: %w", cells[i].w.Name, cells[i].impl, err)
		}
		return nil
	})
}

// run builds the cell's simulation and runs it through Simulate with
// extra, splitting a NIC backend's streams. With a twin (see twins) it
// also returns the twin's run, and the twin's replay takes extra's
// place: the same execution, with the instruction counts, ticks and
// granularity of c's, the sum of c's two streams' reference counts, and
// caches replayed from each node's two streams in the order they were
// recorded, which is the twin's one stream (the machine flushes the
// recording it leaves at every switch).
func (c cell) run(ctx context.Context, twin *cell, geoms []cache.Config, extra func(k int, nic bool, refs []uint32)) (r, t *Run, err error) {
	cs, err := c.build()
	if err != nil {
		return nil, nil, err
	}
	defer cs.Close()
	var both *nodeReplay
	if twin != nil && len(geoms) > 0 {
		if both, err = newNodeReplay(cs.Nodes, geoms, nil); err != nil {
			return nil, nil, err
		}
		defer both.close()
		extra = func(k int, _ bool, refs []uint32) { both.feed(k, refs) }
	}
	if r, err = Simulate(ctx, cs, geoms, true, extra); err != nil {
		return nil, nil, err
	}
	r.Workload = c.w
	if twin != nil {
		t = &Run{
			Workload: r.Workload, Impl: twin.impl, Nodes: r.Nodes, Ticks: r.Ticks,
			Instructions: r.Instructions, Counts: r.Counts,
			TPQ: r.TPQ, IPT: r.IPT, IPQ: r.IPQ, Threads: r.Threads, Quanta: r.Quanta,
			Caches: both.stats(geoms),
		}
		t.Counts.Add(&r.NIC.Counts)
	}
	return r, t, nil
}

// Simulate runs cs, a built simulation that has not run, replaying
// each node's streams through geoms while it records them, a chunk at a
// time (trace.Recording.Drain), so no stream is held whole. Each node
// owns a fresh pair per geometry, and misses sum. With split set, a
// backend with NIC-offloaded inlets records each node's NIC stream
// apart and replays it through a NIC pair; unsplit, one stream holds
// both shares. With a sink (cs.Obs) the misses are attributed into its
// registry. extra, when non-nil, also gets every node's references as
// they are recorded, nic marking the NIC stream's. Geometry errors
// surface before the run. The caller sets the run's Workload and
// closes cs.
func Simulate(ctx context.Context, cs *core.ClusterSim, geoms []cache.Config, split bool, extra func(k int, nic bool, refs []uint32)) (r *Run, err error) {
	if err := validate(geoms); err != nil {
		return nil, err
	}
	if extra == nil {
		extra = func(int, bool, []uint32) {}
	}
	var grid, nic *nodeReplay
	var mcs []trace.MissCounts
	if len(geoms) > 0 {
		if cs.Obs != nil {
			mcs = make([]trace.MissCounts, len(geoms))
		}
		grid, err = newNodeReplay(cs.Nodes, geoms, mcs)
		if err == nil && split && cs.Impl.Caps().NICInlets {
			nic, err = newNodeReplay(cs.Nodes, []cache.Config{NICGeom}, nil)
		}
		defer grid.close()
		defer nic.close()
		if err != nil {
			return nil, err
		}
	}
	r, recs, err := record(ctx, cs, split, func(k int, rec, nicRec *trace.Recording) {
		rec.Drain(func(refs []uint32) {
			grid.feed(k, refs)
			extra(k, false, refs)
		})
		if nicRec != nil {
			nicRec.Drain(func(refs []uint32) {
				nic.feed(k, refs)
				extra(k, true, refs)
			})
		}
	})
	if err != nil {
		return nil, err
	}
	for _, rec := range append(recs, r.nicRecs...) {
		rec.Flush()
		rec.Release()
	}
	r.nicRecs = nil
	r.fill(grid.stats(geoms), mcs)
	if nic != nil {
		r.nicMisses(nic.stats([]cache.Config{NICGeom})[0])
	}
	return r, nil
}

// nodeReplay replays one stream per node through a set of geometries
// as the stream is fed, each node into fresh pairs of its own (a mesh
// node owns its caches).
type nodeReplay struct {
	pairs [][]trace.Pair // per node, per geometry
	rps   []*trace.Replayer
}

// newNodeReplay starts the replays; with mcs non-nil, every node's
// replay attributes its misses into mcs, one entry per geometry.
func newNodeReplay(nodes int, geoms []cache.Config, mcs []trace.MissCounts) (*nodeReplay, error) {
	var h *trace.Hooks
	if mcs != nil {
		h = &trace.Hooks{Misses: mcs}
	}
	n := &nodeReplay{}
	for k := 0; k < nodes; k++ {
		pairs, err := newPairs(geoms)
		var rp *trace.Replayer
		if err == nil {
			rp, err = trace.NewReplayer(pairs, h)
		}
		if err != nil {
			n.close()
			return nil, err
		}
		n.pairs, n.rps = append(n.pairs, pairs), append(n.rps, rp)
	}
	return n, nil
}

// feed replays node k's next references; a nil nodeReplay takes none.
func (n *nodeReplay) feed(k int, refs []uint32) {
	if n != nil {
		n.rps[k].Feed(refs)
	}
}

// close ends every node's stream, once; a nil nodeReplay has none.
func (n *nodeReplay) close() {
	if n != nil {
		for _, rp := range n.rps {
			rp.Close()
		}
		n.rps = nil
	}
}

// stats ends every node's stream and sums each geometry's statistics
// over the nodes; a nil nodeReplay, which replays no geometry, has
// none.
func (n *nodeReplay) stats(geoms []cache.Config) []CacheStats {
	out := newStats(geoms)
	if n != nil {
		n.close()
		for _, pairs := range n.pairs {
			addStats(out, pairs)
		}
	}
	return out
}

// newPairs builds one fresh pair per geometry.
func newPairs(geoms []cache.Config) ([]trace.Pair, error) {
	pairs := make([]trace.Pair, len(geoms))
	for g := range geoms {
		var err error
		if pairs[g], err = trace.NewPair(geoms[g]); err != nil {
			return nil, err
		}
	}
	return pairs, nil
}

// newStats returns zeroed statistics for geoms.
func newStats(geoms []cache.Config) []CacheStats {
	out := make([]CacheStats, len(geoms))
	for g := range geoms {
		out[g].Config = geoms[g]
	}
	return out
}

// addStats adds each pair's misses and writebacks into out, position
// by position.
func addStats(out []CacheStats, pairs []trace.Pair) {
	for i, p := range pairs {
		cs := &out[i]
		cs.IMisses += p.I.Stats().Misses
		cs.DMisses += p.D.Stats().Misses
		cs.Writebacks += p.D.Stats().Writebacks
	}
}

// simulate runs every cell without recording, on the pool forEachCell
// sizes, and hands each finished simulation to fn before releasing it.
func simulate(cells []cell, parallelism int, fn func(i int, cs *core.ClusterSim)) error {
	return forEachCell(context.Background(), cells, parallelism, func(i int) error {
		cs, err := cells[i].build()
		if err != nil {
			return err
		}
		defer cs.Close()
		if err := cs.Run(); err != nil {
			return err
		}
		fn(i, cs)
		return nil
	})
}

// build compiles and loads the cell's simulation with the default
// instruction budget.
func (c cell) build() (*core.ClusterSim, error) {
	spec, err := programs.ByName(c.w.Name)
	if err != nil {
		return nil, err
	}
	if c.opt.MaxInstructions == 0 {
		c.opt.MaxInstructions = 2_000_000_000
	}
	return core.BuildCluster(c.impl, spec.Build(c.w.Arg), c.opt)
}

// validate checks every geometry.
func validate(geoms []cache.Config) error {
	for _, g := range geoms {
		if err := g.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// RecordOne simulates one workload under one implementation with a
// trace recording attached, returning the run (cache statistics
// unfilled) and the recorded reference stream. The recording can then
// be replayed through any number of cache geometries without
// re-simulating.
func RecordOne(w Workload, impl core.Impl, opt core.Options) (*Run, *trace.Recording, error) {
	return RecordOneContext(context.Background(), w, impl, opt)
}

// RecordOneContext is RecordOne with cooperative cancellation of the
// simulation step loop: the one-node case of RecordClusterContext.
func RecordOneContext(ctx context.Context, w Workload, impl core.Impl, opt core.Options) (*Run, *trace.Recording, error) {
	if opt.Nodes > 1 {
		return nil, nil, fmt.Errorf("experiments: RecordOne runs one node, not %d; use RecordCluster", opt.Nodes)
	}
	r, recs, err := RecordClusterContext(ctx, w, impl, opt)
	if err != nil {
		return nil, nil, err
	}
	return r, recs[0], nil
}

// ReplayFanOutContext fills r.Caches by replaying rec through every
// geometry (see fanOut), indexed by geometry position regardless of
// completion order. When the run carries a metrics registry, the replay
// also attributes misses by cause; the per-geometry attributions are
// folded into the registry serially, in geometry order, under the
// geometry's label. The run's recorded NIC streams, if any, replay last
// into r.NIC.
func ReplayFanOutContext(ctx context.Context, r *Run, rec *trace.Recording, geoms []cache.Config, parallelism int) error {
	return r.replay(ctx, []*trace.Recording{rec}, geoms, parallelism)
}

// replay is the body of ReplayFanOutContext and
// ReplayClusterFanOutContext: one packed stream per node.
func (r *Run) replay(ctx context.Context, recs []*trace.Recording, geoms []cache.Config, parallelism int) error {
	caches, mcs, err := fanOut(ctx, packed(recs), len(recs), geoms, parallelism, r.Metrics != nil)
	if err != nil {
		return err
	}
	r.fill(caches, mcs)
	if r.NIC == nil || r.nicRecs == nil {
		return nil
	}
	// The NIC cache is one fixed geometry, not a grid: each node's
	// stream replays through its own private pair and the misses sum.
	nic, _, err := fanOut(ctx, packed(r.nicRecs), len(r.nicRecs), []cache.Config{r.NIC.Config}, 1, false)
	if err != nil {
		return err
	}
	r.nicRecs = nil
	r.nicMisses(nic[0])
	return nil
}

// fill sets the run's per-geometry statistics and folds the
// attribution, if any, into its registry serially, in geometry order,
// under each geometry's label.
func (r *Run) fill(caches []CacheStats, mcs []trace.MissCounts) {
	r.Caches = caches
	for g := range mcs {
		mcs[g].AddTo(r.Metrics, caches[g].Config.String())
	}
}

// nicMisses sets the NIC engine's miss statistics and, when the run
// carries a metrics registry, its nic.* counters.
func (r *Run) nicMisses(c CacheStats) {
	r.NIC.IMisses, r.NIC.DMisses, r.NIC.Writebacks = c.IMisses, c.DMisses, c.Writebacks
	if r.Metrics != nil {
		r.Metrics.Counter("nic.instructions").Add(r.NIC.Instructions)
		r.Metrics.Counter("nic.miss.fetch").Add(r.NIC.IMisses)
		r.Metrics.Counter("nic.miss.data").Add(r.NIC.DMisses)
		r.Metrics.Counter("nic.writebacks").Add(r.NIC.Writebacks)
	}
}

// packed opens node k's packed recording as a chunk source.
func packed(recs []*trace.Recording) func(k int) (trace.Source, error) {
	return func(k int) (trace.Source, error) { return recs[k].Chunks(), nil }
}

// fanOut is the one geometry fan-out every replay goes through. The
// geometries are split into contiguous groups (see replayGroups), each
// group replays on one pool worker, and within a group every node's
// stream — opened through open, once per group — passes once through
// the trace kernel into a fresh private cache pair per geometry (a mesh
// node owns its caches). Misses, writebacks and, when attribute is set,
// per-cause miss attribution sum over nodes per geometry. Results are
// position-indexed, so they are identical at every parallelism.
func fanOut(ctx context.Context, open func(node int) (trace.Source, error), nodes int, geoms []cache.Config, parallelism int, attribute bool) ([]CacheStats, []trace.MissCounts, error) {
	if err := validate(geoms); err != nil {
		return nil, nil, err
	}
	out := newStats(geoms)
	var mcs []trace.MissCounts
	if attribute {
		mcs = make([]trace.MissCounts, len(geoms))
	}
	groups := replayGroups(len(geoms), parallelism)
	err := parallel.ForEachContext(ctx, parallelism, len(groups), func(gi int) error {
		lo, hi := groups[gi][0], groups[gi][1]
		var h *trace.Hooks
		if mcs != nil {
			h = &trace.Hooks{Misses: mcs[lo:hi]}
		}
		for k := 0; k < nodes; k++ {
			pairs, err := newPairs(geoms[lo:hi])
			if err != nil {
				return err
			}
			src, err := open(k)
			if err != nil {
				return err
			}
			if err := trace.Replay(ctx, src, pairs, h); err != nil {
				return err
			}
			addStats(out[lo:hi], pairs)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, mcs, nil
}

// replayGroups partitions n geometries into contiguous [lo, hi) groups
// for the replay fan-out: one singleton group per geometry when the
// worker pool is at least that wide (every worker streams its own
// geometry, the pre-vectorization layout), otherwise one near-equal
// group per worker so each worker amortizes one pass over the recording
// across its whole group.
func replayGroups(n, parallelism int) [][2]int {
	w := parallel.Workers(parallelism)
	if w > n {
		w = n
	}
	groups := make([][2]int, 0, w)
	lo := 0
	for i := 0; i < w; i++ {
		hi := lo + (n-lo)/(w-i)
		groups = append(groups, [2]int{lo, hi})
		lo = hi
	}
	return groups
}

// ReplayStreamFanOutContext fills per-geometry cache statistics by
// streaming a compacted recording (see trace.Reader) through the same
// fan-out as ReplayFanOutContext, without ever materializing the packed
// form: each worker group opens its own Reader via open and holds one
// decoded chunk at a time. The statistics are identical to replaying
// the original Recording.
func ReplayStreamFanOutContext(ctx context.Context, open func() (*trace.Reader, error), geoms []cache.Config, parallelism int) ([]CacheStats, error) {
	caches, _, err := fanOut(ctx, func(int) (trace.Source, error) { return open() }, 1, geoms, parallelism, false)
	return caches, err
}

// RunOne simulates one workload under one implementation and replays
// its streams through the given cache geometries while it records them
// (see Simulate); with no geometries it only records. The workload
// runs on opt.Nodes nodes (one by default), each replaying through its
// own private cache pairs, and the misses sum.
func RunOne(w Workload, impl core.Impl, geoms []cache.Config, opt core.Options) (*Run, error) {
	// Surface geometry errors before paying for a simulation.
	if err := validate(geoms); err != nil {
		return nil, err
	}
	r, _, err := cell{w, impl, opt}.run(context.Background(), nil, geoms, nil)
	return r, err
}

// --- Table 2 ----------------------------------------------------------------

// Table2Row is one row of Table 2: granularity under both
// implementations plus the MD/AM cycle ratio at an 8K 4-way cache for
// miss costs 12, 24 and 48.
type Table2Row struct {
	Program                   string
	TPQMD, TPQAM              float64
	IPTMD, IPTAM              float64
	IPQMD, IPQAM              float64
	Ratio12, Ratio24, Ratio48 float64
}

// Table2 derives the paper's Table 2 from a dataset. The dataset must
// include the 8 KB 4-way geometry.
func Table2(d *Dataset) []Table2Row {
	var rows []Table2Row
	for _, w := range d.Sweep.Workloads {
		md := d.Run(w.Name, core.ImplMD)
		am := d.Run(w.Name, core.ImplAM)
		rows = append(rows, Table2Row{
			Program: w.Name,
			TPQMD:   md.TPQ, TPQAM: am.TPQ,
			IPTMD: md.IPT, IPTAM: am.IPT,
			IPQMD: md.IPQ, IPQAM: am.IPQ,
			Ratio12: d.Ratio(w.Name, 8, 4, 12),
			Ratio24: d.Ratio(w.Name, 8, 4, 24),
			Ratio48: d.Ratio(w.Name, 8, 4, 48),
		})
	}
	return rows
}

// --- Figures 3-6 --------------------------------------------------------------

// Series is one plotted curve: the MD/AM ratio against cache size.
type Series struct {
	Label   string
	SizesKB []int
	Ratios  []float64
}

// Figure3 returns the geometric-mean ratio curves of Figure 3: one
// series per associativity, for each miss penalty. The outer index is
// the penalty, the inner the associativity.
func Figure3(d *Dataset) map[int][]Series {
	out := make(map[int][]Series)
	for _, p := range d.Sweep.Penalties {
		for _, a := range d.Sweep.Assocs {
			out[p] = append(out[p], curve(fmt.Sprintf("%d-way", a), d.Sweep.SizesKB,
				func(kb int) float64 { return d.GeoMeanRatio(kb, a, p) }))
		}
	}
	return out
}

// curve samples f at every x as one labelled series.
func curve(label string, xs []int, f func(x int) float64) Series {
	s := Series{Label: label, SizesKB: xs}
	for _, x := range xs {
		s.Ratios = append(s.Ratios, f(x))
	}
	return s
}

// figurePerProgram returns per-program ratio curves plus the geometric
// mean at one associativity, for each penalty (Figures 4 and 5).
func figurePerProgram(d *Dataset, assoc int) map[int][]Series {
	out := make(map[int][]Series)
	for _, p := range d.Sweep.Penalties {
		for _, w := range d.Sweep.Workloads {
			out[p] = append(out[p], curve(w.Name, d.Sweep.SizesKB,
				func(kb int) float64 { return d.Ratio(w.Name, kb, assoc, p) }))
		}
		out[p] = append(out[p], curve("geomean", d.Sweep.SizesKB,
			func(kb int) float64 { return d.GeoMeanRatio(kb, assoc, p) }))
	}
	return out
}

// Figure4 returns the per-program curves for 4-way set-associative
// caches (plus the geometric mean), keyed by miss penalty.
func Figure4(d *Dataset) map[int][]Series { return figurePerProgram(d, 4) }

// Figure5 returns the per-program curves for direct-mapped caches (plus
// the geometric mean), keyed by miss penalty.
func Figure5(d *Dataset) map[int][]Series { return figurePerProgram(d, 1) }

// Figure6 returns the direct-mapped geometric-mean curves excluding
// selection sort, one series per miss penalty.
func Figure6(d *Dataset) []Series {
	var out []Series
	for _, p := range d.Sweep.Penalties {
		out = append(out, curve(fmt.Sprintf("%d-cycle miss", p), d.Sweep.SizesKB,
			func(kb int) float64 { return d.GeoMeanRatio(kb, 1, p, "ss") }))
	}
	return out
}

// --- §3.1 access ratios --------------------------------------------------------

// AccessRatioRow reports MD/AM reference-count ratios for one program.
type AccessRatioRow struct {
	Program                string
	Reads, Writes, Fetches float64
}

// AccessRatios derives the §3.1 comparison (paper average: MD performs
// 86% of the reads, 87% of the writes and 77% of the fetches of AM).
// The final row, labelled "mean", is the arithmetic mean as in the
// paper's "on average" phrasing.
func AccessRatios(d *Dataset) []AccessRatioRow {
	var rows []AccessRatioRow
	var sr, sw, sf float64
	for _, w := range d.Sweep.Workloads {
		md := d.Run(w.Name, core.ImplMD)
		am := d.Run(w.Name, core.ImplAM)
		row := AccessRatioRow{
			Program: w.Name,
			Reads:   ratio64(md.Counts.TotalReads(), am.Counts.TotalReads()),
			Writes:  ratio64(md.Counts.TotalWrites(), am.Counts.TotalWrites()),
			Fetches: ratio64(md.Counts.TotalFetches(), am.Counts.TotalFetches()),
		}
		sr += row.Reads
		sw += row.Writes
		sf += row.Fetches
		rows = append(rows, row)
	}
	n := float64(len(d.Sweep.Workloads))
	rows = append(rows, AccessRatioRow{Program: "mean", Reads: sr / n, Writes: sw / n, Fetches: sf / n})
	return rows
}

func ratio64(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// --- Figure 2 ablation -----------------------------------------------------------

// EnabledRow compares the unenabled AM implementation with the enabled
// variant of §2.4 on one workload: on a uniprocessor, servicing local
// I-structure fetches immediately extends quanta.
type EnabledRow struct {
	Program                      string
	TPQUnenabled, TPQEnabled     float64
	InstrUnenabled, InstrEnabled uint64
}

// EnabledAblation runs the Figure 2 comparison for the given workloads.
// The 2*len(ws) simulations are independent and run on at most
// parallelism workers (0 = GOMAXPROCS); each writes a disjoint half of
// its pre-assigned row. They record nothing: the comparison needs only
// granularity and instruction counts.
func EnabledAblation(ws []Workload, opt core.Options, parallelism int) ([]EnabledRow, error) {
	rows := make([]EnabledRow, len(ws))
	cells := grid(ws, []core.Impl{core.ImplAM, core.ImplAMEnabled}, opt)
	err := simulate(cells, parallelism, func(i int, cs *core.ClusterSim) {
		row := &rows[i/2]
		if cells[i].impl == core.ImplAM {
			row.Program = cells[i].w.Name
			row.TPQUnenabled, row.InstrUnenabled = cs.MergedGran().TPQ(), cs.Instructions()
		} else {
			row.TPQEnabled, row.InstrEnabled = cs.MergedGran().TPQ(), cs.Instructions()
		}
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// --- Block-size ablation ------------------------------------------------------------

// BlockRow reports the MD/AM ratio for one block size at the 8K 4-way
// geometry, penalty 24 — the paper notes 64-byte blocks were best for
// both systems.
type BlockRow struct {
	BlockBytes int
	Ratio      float64
	MDCycles   uint64
	AMCycles   uint64
}

// BlockSweep evaluates block sizes 8..64 for the given workloads. Block
// size is a geometry-only parameter, so each (workload, implementation)
// pair is simulated exactly once and its recorded trace is replayed
// through all four block geometries; the simulations run on at most
// parallelism workers (0 = GOMAXPROCS). Totals accumulate in cell order,
// so the rows are identical at every parallelism setting.
func BlockSweep(ws []Workload, opt core.Options, parallelism int) ([]BlockRow, error) {
	blocks := []int{8, 16, 32, 64}
	var geoms []cache.Config
	for _, bb := range blocks {
		geoms = append(geoms, cache.Config{SizeBytes: 8 * 1024, BlockBytes: bb, Assoc: 4})
	}
	cycles, _, err := pairTotals(ws, opt, parallelism, geoms)
	if err != nil {
		return nil, err
	}
	rows := make([]BlockRow, len(blocks))
	for i, bb := range blocks {
		md, am := cycles[0][i], cycles[1][i]
		rows[i] = BlockRow{BlockBytes: bb, Ratio: ratio64(md, am), MDCycles: md, AMCycles: am}
	}
	return rows, nil
}

// pairTotals runs every workload under MD and AM through geoms and sums
// each backend's cycles at miss 24 and its misses per geometry, in cell
// order: MD at index 0, AM at 1.
func pairTotals(ws []Workload, opt core.Options, parallelism int, geoms []cache.Config) (cycles, misses [2][]uint64, err error) {
	runs, err := runCells(context.Background(), grid(ws, paperImpls(), opt), geoms, parallelism, nil)
	if err != nil {
		return cycles, misses, err
	}
	for b := range cycles {
		cycles[b], misses[b] = make([]uint64, len(geoms)), make([]uint64, len(geoms))
	}
	for i, r := range runs {
		for g, c := range r.Caches {
			cycles[i%2][g] += r.Cycles(g, 24, false)
			misses[i%2][g] += c.IMisses + c.DMisses
		}
	}
	return cycles, misses, nil
}

// --- Associativity ablation ---------------------------------------------------------

// AssocRow reports the MD/AM ratio for one associativity at 8K/64B,
// penalty 24. §3.3 attributes much of MD's extra miss traffic to
// conflict misses in the data cache; sweeping associativity past the
// paper's 1/2/4 grid up to 8- and 16-way bounds how much of the gap
// conflict misses explain — the residual at high associativity is
// capacity and cold misses.
type AssocRow struct {
	Assoc    int
	Ratio    float64
	MDCycles uint64
	AMCycles uint64
	MDMisses uint64
	AMMisses uint64
}

// AssocSweep evaluates associativities 1..16 at the paper's headline 8K
// size and 64-byte blocks for the given workloads. Associativity is a
// geometry-only parameter, so each (workload, implementation) pair is
// simulated exactly once and its recorded trace is replayed through all
// five geometries in one vectorized pass; the simulations run on at
// most parallelism workers (0 = GOMAXPROCS). Totals accumulate in cell
// order, so the rows are identical at every parallelism setting.
func AssocSweep(ws []Workload, opt core.Options, parallelism int) ([]AssocRow, error) {
	assocs := []int{1, 2, 4, 8, 16}
	var geoms []cache.Config
	for _, a := range assocs {
		geoms = append(geoms, cache.Config{SizeBytes: 8 * 1024, BlockBytes: 64, Assoc: a})
	}
	cycles, misses, err := pairTotals(ws, opt, parallelism, geoms)
	if err != nil {
		return nil, err
	}
	rows := make([]AssocRow, len(assocs))
	for i, a := range assocs {
		md, am := cycles[0][i], cycles[1][i]
		rows[i] = AssocRow{Assoc: a, Ratio: ratio64(md, am), MDCycles: md, AMCycles: am,
			MDMisses: misses[0][i], AMMisses: misses[1][i]}
	}
	return rows, nil
}

// WordBytes re-exports the machine word size for presentation layers.
const WordBytes = mem.WordBytes
