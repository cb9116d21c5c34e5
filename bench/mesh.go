package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"jmtam/internal/cache"
	"jmtam/internal/core"
	"jmtam/internal/experiments"
	"jmtam/internal/trace"
)

// mesh-n8: one experiments.NodeRatioSweep pass over the paper's programs
// on an 8-node mesh under the four mesh backends (MD, AM, NIC offload,
// Active Access) at one geometry. Lockstep ClusterSim and netsim
// dominate; replay covers a single geometry.

const meshNodes = 8

var (
	meshImpls   = []core.Impl{core.ImplMD, core.ImplAM, core.ImplOffload, core.ImplAA}
	meshGeom    = cache.Config{SizeBytes: 8 << 10, BlockBytes: 64, Assoc: 4}
	meshPenalty = 24
)

type meshSession struct {
	ws   []experiments.Workload
	par  int
	want string
}

// setupMesh runs one pass, untimed by the operation loop, to warm the
// heap and memory pools.
func setupMesh(ctx context.Context, cfg *Config) (session, error) {
	s := &meshSession{ws: paperWorkloads(cfg), par: runtime.NumCPU(), want: meshDigest}
	if cfg.Smoke {
		s.want = meshQuickDigest
	}
	rows, err := s.pass()
	if err != nil {
		return nil, err
	}
	if got := NodeRowsDigest(rows); got != s.want {
		return nil, fmt.Errorf("warm-up pass digest %s, want %s", got, s.want)
	}
	return s, nil
}

func (s *meshSession) pass() ([]experiments.NodeRatioRow, error) {
	return experiments.NodeRatioSweep(s.ws, meshImpls, []int{meshNodes}, meshGeom, meshPenalty, core.Options{}, s.par)
}

func (s *meshSession) close() {}

func (s *meshSession) run(ctx context.Context, cfg *Config, tr *Tracer, cal *calibrator) (*measured, error) {
	var probeUnits []probeUnit
	w := &work{}
	m := closedLoop(cfg, tr, cal, func(i int, t *Tracer) (func() error, error) {
		var rows []experiments.NodeRatioRow
		var err error
		if t == nil {
			rows, err = s.pass()
		} else {
			keep := probeUnits == nil
			var units []probeUnit
			rows, units, err = s.tracedPass(ctx, t, i, keep, w)
			if keep {
				probeUnits = units
			}
		}
		return func() error {
			if got := NodeRowsDigest(rows); got != s.want {
				return fmt.Errorf("node-ratio digest %s, want %s", got, s.want)
			}
			return nil
		}, err
	})
	if tr == nil {
		return m, nil
	}
	self := SelfTimes(tr.Spans())
	m.layer = map[string]float64{
		"mesh.minstr_per_s":       rate(w.get("mesh.instr"), self, "mesh"),
		"mesh.mticks_per_s":       rate(w.get("mesh.ticks"), self, "mesh"),
		"replay.mref_geoms_per_s": rate(w.get("replay.refgeoms"), self, "replay"),
	}
	var cu []compileUnit
	for _, impl := range meshImpls {
		for _, wl := range s.ws {
			cu = append(cu, compileUnit{wl, impl, meshNodes})
		}
	}
	return m, probe(ctx, m.layer, cu, probeUnits)
}

// tracedPass runs the per-job sequence NodeRatioSweep runs, with the same
// worker split — experiments.RecordCluster, then
// experiments.ReplayClusterFanOutContext on one worker — timing each call
// as a span, and aggregates the rows as NodeRatioSweep does. With keep it
// also returns every node's recording for the layer probe.
func (s *meshSession) tracedPass(ctx context.Context, tr *Tracer, op int, keep bool, w *work) ([]experiments.NodeRatioRow, []probeUnit, error) {
	root := tr.NewID()
	start := time.Now()
	impls := append([]core.Impl(nil), meshImpls...)
	core.SortImpls(impls)
	type job struct {
		impl core.Impl
		w    experiments.Workload
	}
	var jobs []job
	for _, impl := range impls {
		for _, wl := range s.ws {
			jobs = append(jobs, job{impl, wl})
		}
	}
	runs := make([]*experiments.Run, len(jobs))
	units := make([][]probeUnit, len(jobs))
	geoms := []cache.Config{meshGeom}
	err := forEachLane(ctx, s.par, len(jobs), func(i, lane int) error {
		j := jobs[i]
		var r *experiments.Run
		var recs []*trace.Recording
		err := tr.Time("mesh", op, root, lane, func() (err error) {
			r, recs, err = experiments.RecordCluster(j.w, j.impl, core.Options{Nodes: meshNodes})
			return err
		})
		if err != nil {
			return fmt.Errorf("%s/%s n=%d: %w", j.w.Name, j.impl, meshNodes, err)
		}
		if err := tr.Time("replay", op, root, lane, func() error {
			return experiments.ReplayClusterFanOutContext(ctx, r, recs, geoms, 1)
		}); err != nil {
			return err
		}
		refs := 0
		for k, rec := range recs {
			refs += rec.Len()
			if keep {
				units[i] = append(units[i], probeUnit{
					name: fmt.Sprintf("%s/%s/n%d/node%d", j.w.Name, j.impl.Name(), meshNodes, k),
					rec:  rec, geoms: geoms,
				})
			}
		}
		w.add("mesh.instr", float64(r.Instructions))
		w.add("mesh.ticks", float64(r.Ticks))
		w.add("replay.refgeoms", float64(refs))
		runs[i] = r
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, len(impls))
	for i, impl := range impls {
		names[i] = impl.Name()
	}
	row := experiments.NodeRatioRow{
		Nodes: meshNodes, Impls: names,
		Cycles: make(map[string]uint64), Ticks: make(map[string]uint64),
		RatioCycles: make(map[string]float64), RatioTicks: make(map[string]float64),
	}
	for i, j := range jobs {
		row.Cycles[j.impl.Name()] += runs[i].Cycles(0, meshPenalty, false)
		row.Ticks[j.impl.Name()] += runs[i].Ticks
	}
	md := core.ImplMD.Name()
	for _, name := range names {
		row.RatioCycles[name] = ratio(row.Cycles[md], row.Cycles[name])
		row.RatioTicks[name] = ratio(row.Ticks[md], row.Ticks[name])
	}
	tr.Add(Span{Name: "op", ID: root, Trace: op, Start: start, End: time.Now()})
	var flat []probeUnit
	for _, u := range units {
		flat = append(flat, u...)
	}
	return []experiments.NodeRatioRow{row}, flat, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
