package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"jmtam/internal/cache"
	"jmtam/internal/core"
	"jmtam/internal/experiments"
	"jmtam/internal/parallel"
	"jmtam/internal/trace"
)

// paper-cold: the paper reproduction itself. Each operation is a full
// experiments.DefaultSweep over the paper's six programs × {MD, AM} × 24
// geometries, with every simulated cache starting empty, followed by the
// paper's derived tables and figures. Replay dominates, then record.

type coldSession struct {
	sweep *experiments.Sweep
	want  string
}

func paperWorkloads(cfg *Config) []experiments.Workload {
	if cfg.Smoke {
		return experiments.QuickWorkloads()
	}
	return experiments.PaperWorkloads()
}

// setupCold builds the sweep and runs it once, untimed by the operation
// loop, so memory pools and the heap are warm before timing starts.
func setupCold(ctx context.Context, cfg *Config) (session, error) {
	s := &coldSession{sweep: experiments.DefaultSweep(paperWorkloads(cfg)), want: paperDigest}
	s.sweep.Parallelism = runtime.NumCPU()
	if cfg.Smoke {
		s.want = paperQuickDigest
	}
	ds, err := s.sweep.ExecuteContext(ctx)
	if err != nil {
		return nil, err
	}
	if got := DatasetDigest(ds); got != s.want {
		return nil, fmt.Errorf("warm-up sweep digest %s, want %s", got, s.want)
	}
	return s, nil
}

func (s *coldSession) close() {}

func (s *coldSession) run(ctx context.Context, cfg *Config, tr *Tracer, cal *calibrator) (*measured, error) {
	var probeUnits []probeUnit
	w := &work{}
	m := closedLoop(cfg, tr, cal, func(i int, t *Tracer) (func() error, error) {
		var ds *experiments.Dataset
		var err error
		if t == nil {
			ds, err = s.sweep.ExecuteContext(ctx)
			if err == nil {
				derive(ds)
			}
		} else {
			keep := probeUnits == nil
			var units []probeUnit
			ds, units, err = tracedSweep(ctx, s.sweep, t, i, keep, w)
			if keep {
				probeUnits = units
			}
		}
		return func() error {
			if got := DatasetDigest(ds); got != s.want {
				return fmt.Errorf("dataset digest %s, want %s", got, s.want)
			}
			return nil
		}, err
	})
	if tr == nil {
		return m, nil
	}
	self := SelfTimes(tr.Spans())
	m.layer = map[string]float64{
		"record.minstr_per_s":     rate(w.get("record.instr"), self, "record"),
		"replay.mref_geoms_per_s": rate(w.get("replay.refgeoms"), self, "replay"),
	}
	var cu []compileUnit
	for _, wl := range s.sweep.Workloads {
		for _, impl := range s.sweep.Impls {
			cu = append(cu, compileUnit{wl, impl, 1})
		}
	}
	return m, probe(ctx, m.layer, cu, probeUnits)
}

// derivedSink keeps the derived tables observable, so deriving them is
// never optimized away.
var derivedSink int

// derive computes the paper's tables and figures from a sweep.
func derive(ds *experiments.Dataset) {
	n := len(experiments.Table2(ds)) + len(experiments.Figure3(ds)) + len(experiments.Figure4(ds)) +
		len(experiments.Figure5(ds)) + len(experiments.Figure6(ds)) + len(experiments.AccessRatios(ds))
	derivedSink += n
}

func sweepGeoms(s *experiments.Sweep) []cache.Config {
	var gs []cache.Config
	for _, kb := range s.SizesKB {
		for _, a := range s.Assocs {
			gs = append(gs, cache.Config{SizeBytes: kb * 1024, BlockBytes: s.BlockBytes, Assoc: a})
		}
	}
	return gs
}

// forEachLane runs fn for 0..n-1 on par workers, as
// parallel.ForEachContext does, passing each call the lane (1..par) it
// holds while it runs, so concurrent spans land on separate lanes.
func forEachLane(ctx context.Context, par, n int, fn func(i, lane int) error) error {
	free := make(chan int, par)
	for l := 1; l <= par; l++ {
		free <- l
	}
	return parallel.ForEachContext(ctx, par, n, func(i int) error {
		lane := <-free
		defer func() { free <- lane }()
		return fn(i, lane)
	})
}

// tracedSweep runs the per-unit sequence Sweep.ExecuteContext runs, with
// the same worker split — experiments.RecordOne, then
// experiments.ReplayFanOutContext — timing each call as a span, then
// derives the tables. With keep it also returns every unit's recording
// for the layer probe.
func tracedSweep(ctx context.Context, s *experiments.Sweep, tr *Tracer, op int, keep bool, w *work) (*experiments.Dataset, []probeUnit, error) {
	root := tr.NewID()
	start := time.Now()
	geoms := sweepGeoms(s)
	type job struct {
		w    experiments.Workload
		impl core.Impl
	}
	var jobs []job
	for _, wl := range s.Workloads {
		for _, impl := range s.Impls {
			jobs = append(jobs, job{wl, impl})
		}
	}
	par := parallel.Workers(s.Parallelism)
	replayPar := 1
	if par/len(jobs) > 1 {
		replayPar = par / len(jobs)
	}
	runs := make([]*experiments.Run, len(jobs))
	units := make([]probeUnit, len(jobs))
	err := forEachLane(ctx, par, len(jobs), func(i, lane int) error {
		j := jobs[i]
		var r *experiments.Run
		var rec *trace.Recording
		err := tr.Time("record", op, root, lane, func() (err error) {
			r, rec, err = experiments.RecordOne(j.w, j.impl, s.Options)
			return err
		})
		if err != nil {
			return err
		}
		if err := tr.Time("replay", op, root, lane, func() error {
			return experiments.ReplayFanOutContext(ctx, r, rec, geoms, replayPar)
		}); err != nil {
			return err
		}
		w.add("record.instr", float64(r.Instructions))
		w.add("replay.refgeoms", float64(rec.Len()*len(geoms)))
		runs[i] = r
		if keep {
			units[i] = probeUnit{name: j.w.Name + "/" + j.impl.Name(), rec: rec, geoms: geoms}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	ds := &experiments.Dataset{Sweep: s, Geoms: geoms, Runs: make(map[string]map[string]*experiments.Run)}
	for i, j := range jobs {
		if ds.Runs[j.w.Name] == nil {
			ds.Runs[j.w.Name] = make(map[string]*experiments.Run)
		}
		ds.Runs[j.w.Name][j.impl.Name()] = runs[i]
	}
	tr.Time("derive", op, root, 0, func() error {
		derive(ds)
		return nil
	})
	tr.Add(Span{Name: "op", ID: root, Trace: op, Start: start, End: time.Now()})
	if !keep {
		units = nil
	}
	return ds, units, nil
}
