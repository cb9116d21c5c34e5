package bench

import (
	"context"
	"encoding/json"
	"fmt"

	"jmtam/api"
	"jmtam/internal/core"
	"jmtam/internal/experiments"
	"jmtam/internal/trace"
	"jmtam/internal/tracestore"
)

// paper-warm: the repeat-sweep path. Each operation posts the paper
// grid to an in-process tamsimd whose recording store already holds
// every unit, with a penalty list no earlier request used: the result
// cache misses, every recording hits the store, and the daemon streams,
// replays and assembles without simulating.

type warmSession struct {
	d         *daemon
	ws        []experiments.Workload
	scale     string
	penalties [][]int
	want      string
}

// setupWarm starts a daemon and runs the grid once cold, which records,
// compacts and stores every unit.
func setupWarm(ctx context.Context, cfg *Config) (session, error) {
	s := &warmSession{ws: paperWorkloads(cfg), scale: "paper", want: paperDigest}
	if cfg.Smoke {
		s.scale, s.want = "quick", paperQuickDigest
	}
	// One list for the cold sweep, then one per operation with room to
	// spare: operations take over a second each.
	s.penalties = GenPenalties(cfg.Seed, 1+4*int(cfg.Seconds)+16)
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	s.d = d
	st, err := s.sweep(ctx, 0)
	if err == nil {
		err = st.check()
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("cold sweep: %w", err)
	}
	return s, nil
}

func (s *warmSession) close() { s.d.close() }

// warmSweep is one posted sweep and what its document must satisfy.
type warmSweep struct {
	*stream
	penalties []int
	want      string
}

// sweep posts the grid with penalty list i.
func (s *warmSession) sweep(ctx context.Context, i int) (*warmSweep, error) {
	p := s.penalties[i%len(s.penalties)]
	st, err := s.d.submit(ctx, "/v1/sweeps", api.SweepRequest{Scale: s.scale, Detail: true, Penalties: p})
	if err != nil {
		return nil, err
	}
	return &warmSweep{st, p, s.want}, nil
}

func (w *warmSweep) check() error {
	var doc api.SweepResult
	if err := json.Unmarshal(w.terminal().Result, &doc); err != nil {
		return err
	}
	return CheckSweepDoc(&doc, w.penalties, w.want)
}

func (s *warmSession) run(ctx context.Context, cfg *Config, tr *Tracer, cal *calibrator) (*measured, error) {
	before, err := s.d.counters(ctx)
	if err != nil {
		return nil, err
	}
	m := closedLoop(cfg, tr, cal, func(i int, t *Tracer) (func() error, error) {
		st, err := s.sweep(ctx, i+1)
		if err != nil {
			return nil, err
		}
		if t != nil {
			root := t.NewID()
			stageSpans(t, st.stream, i, root, []stage{{"server.units", api.EventRun, true}})
			t.Add(Span{Name: "op", ID: root, Trace: i, Start: st.sent, End: st.terminal().at})
		}
		return st.check, nil
	})
	if tr == nil {
		return m, nil
	}
	after, err := s.d.counters(ctx)
	if err != nil {
		return nil, err
	}
	m.layer = map[string]float64{
		"store.hit_ratio":   hitRatio(before, after, "store"),
		"results.hit_ratio": hitRatio(before, after, "results"),
	}
	cu, units, err := s.storedUnits(ctx)
	if err != nil {
		return nil, err
	}
	return m, probe(ctx, m.layer, cu, units)
}

// storedUnits fetches every unit's compacted recording over
// GET /v1/recordings/{key} for the layer probe.
func (s *warmSession) storedUnits(ctx context.Context) ([]compileUnit, []probeUnit, error) {
	var cu []compileUnit
	var units []probeUnit
	for _, w := range s.ws {
		for _, impl := range []core.Impl{core.ImplMD, core.ImplAM} {
			cu = append(cu, compileUnit{w, impl, 1})
			key := tracestore.Desc{Program: w.Name, Arg: w.Arg, Impl: impl.String(), Nodes: 1}.Key()
			blob, err := s.d.fetch(ctx, "/v1/recordings/"+key)
			if err != nil {
				return nil, nil, err
			}
			info, err := trace.CompactStat(blob)
			if err != nil {
				return nil, nil, err
			}
			rec, err := trace.Decompact(blob)
			if err != nil {
				return nil, nil, err
			}
			units = append(units, probeUnit{name: key, rec: rec, ann: info.Annotation, blob: blob, geoms: Grid()})
		}
	}
	return cu, units, nil
}
