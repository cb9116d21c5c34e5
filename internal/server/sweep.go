package server

import (
	"context"
	"encoding/json"
	"sync/atomic"

	"jmtam/api"
	"jmtam/internal/cache"
	"jmtam/internal/core"
	"jmtam/internal/experiments"
	"jmtam/internal/parallel"
	"jmtam/internal/shard"
)

// executeSweep runs a grid job. With a shard coordinator configured the
// grid is partitioned into leased shards and farmed out to remote
// workers (degrading to local execution when none is reachable);
// otherwise the grid runs in-process through sweepUnits, resolving
// each unit's recording through the content-addressed store when it is
// enabled (the default). All paths produce position-indexed unit
// results and assemble the final document through assembleSweepResult,
// so a distributed or store-served sweep is byte-identical to a local
// one. Sweeps bypass the compiled-code cache: a grid simulates each
// (workload, impl) exactly once anyway, so caching would only pin
// paper-scale artifacts for no repeat benefit.
func (s *Server) executeSweep(ctx context.Context, job *Job, req *SweepRequest, resume map[int]shard.UnitResult) (json.RawMessage, error) {
	return s.cachedResult(ctx, job, "sweep", &req.SweepRequest, func(ctx context.Context) (json.RawMessage, error) {
		return s.freshSweep(ctx, job, req, resume)
	})
}

// freshSweep executes the grid; executeSweep resolves the result cache
// around it. resume (may be nil) maps grid positions to already
// journaled unit results from before a restart: those positions are
// filled without re-running, every freshly completed unit is
// checkpointed, and because assembly is position-indexed the resumed
// document is byte-identical to an uninterrupted run.
func (s *Server) freshSweep(ctx context.Context, job *Job, req *SweepRequest, resume map[int]shard.UnitResult) (json.RawMessage, error) {
	var units []shard.UnitResult
	var err error
	if s.coord != nil {
		total := len(req.Workloads) * len(req.impls)
		var todo []int
		for i := 0; i < total; i++ {
			if _, ok := resume[i]; !ok {
				todo = append(todo, i)
			}
		}
		units, err = s.coord.RunSubset(ctx, req.Spec(), todo, func(e shard.Event) {
			job.emit(api.ShardEvent{
				Type: api.EventShard, ID: job.ID, Event: e.Type,
				Shard: e.Shard, Worker: e.Worker,
				Attempt: e.Attempt, Error: e.Err,
			})
		}, func(i int, u shard.UnitResult) {
			s.checkpointUnit(job, i, u)
		})
		if err == nil {
			for i, u := range resume {
				units[i] = u
			}
		}
	} else {
		units, err = s.sweepUnits(ctx, job, req, resume)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(assembleSweepResult(req, units))
}

// checkpointUnit journals one freshly completed sweep unit so a
// restarted daemon resumes from it instead of re-running it. Callers
// may race; the journal serializes appends.
func (s *Server) checkpointUnit(job *Job, idx int, u shard.UnitResult) {
	if s.journal == nil {
		return
	}
	raw, err := json.Marshal(u)
	if err != nil {
		return
	}
	s.journalUnit(job.ID, idx, raw)
}

// decodeCheckpoints validates journaled unit checkpoints against the
// request grid. A checkpoint whose position, identity or geometry
// count does not match is dropped — that unit simply re-runs — so a
// stale or torn checkpoint can degrade resume but never corrupt a
// result.
func (s *Server) decodeCheckpoints(req *SweepRequest, units map[int]json.RawMessage) map[int]shard.UnitResult {
	if len(units) == 0 || len(req.impls) == 0 {
		return nil
	}
	total := len(req.Workloads) * len(req.impls)
	ngeom := len(req.SizesKB) * len(req.Assocs)
	resume := make(map[int]shard.UnitResult)
	for idx, raw := range units {
		if idx < 0 || idx >= total {
			continue
		}
		var u shard.UnitResult
		if err := json.Unmarshal(raw, &u); err != nil {
			continue
		}
		w := req.Workloads[idx/len(req.impls)]
		impl := req.impls[idx%len(req.impls)]
		if u.Program != w.Program || u.Arg != w.Arg || u.Impl != impl.String() || len(u.Caches) != ngeom {
			continue
		}
		resume[idx] = u
	}
	if len(resume) == 0 {
		return nil
	}
	return resume
}

// sweepUnits executes the grid in-process, one unit at a time on a
// bounded pool: resumed positions are filled from their journaled
// checkpoints, every fresh unit is checkpointed as it lands, and each
// position emits one progress event. The two modes differ only in where
// a unit's recording comes from — a fresh simulation replayed packed
// when the recording store is disabled (freshUnit), the fleet's
// compacted bytes streamed when it is enabled (storeUnit) — and both
// replay through the same fan-out, so the document is byte-identical
// whichever served it.
func (s *Server) sweepUnits(ctx context.Context, job *Job, req *SweepRequest, resume map[int]shard.UnitResult) ([]shard.UnitResult, error) {
	geoms := req.Spec().CacheConfigs()
	nimpl := len(req.impls)
	total := len(req.Workloads) * nimpl
	par := parallel.Workers(s.cfg.ReplayParallelism)
	replayPar := 1
	if total > 0 && par/total > 1 {
		replayPar = par / total
	}
	unit := s.freshUnit
	if s.fleet != nil {
		unit = s.storeUnit
	}
	units := make([]shard.UnitResult, total)
	var done atomic.Int64
	err := parallel.ForEachContext(ctx, par, total, func(i int) error {
		// Grid positions are shard.Spec.Units order: workload-major,
		// implementation-minor.
		wl, impl := req.Workloads[i/nimpl], req.impls[i%nimpl]
		u, resumed := resume[i]
		source := "checkpoint"
		if !resumed {
			r, src, err := unit(ctx, experiments.Workload{Name: wl.Program, Arg: wl.Arg}, impl, geoms, replayPar)
			if err != nil {
				return err
			}
			u, source = shard.UnitResultOf(r), src
			s.checkpointUnit(job, i, u)
		}
		units[i] = u
		job.emit(api.RunProgressEvent{
			Type: api.EventRun, ID: job.ID,
			Done: int(done.Add(1)), Total: total,
			Program: wl.Program, Arg: wl.Arg,
			Impl: impl.String(), Source: source,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return units, nil
}

// freshUnit simulates one grid cell with a recording attached and
// replays the packed recording through the grid — the per-unit body of
// Sweep.ExecuteContext — holding the recording's size on the
// sweep.recording.bytes gauge while it is live. Its progress events
// name no source.
func (s *Server) freshUnit(ctx context.Context, w experiments.Workload, impl core.Impl, geoms []cache.Config, par int) (*experiments.Run, string, error) {
	r, rec, err := experiments.RecordOneContext(ctx, w, impl, core.Options{})
	if err != nil {
		return nil, "", err
	}
	s.metrics.GaugeAdd("sweep.recording.bytes", int64(rec.Bytes()))
	defer s.metrics.GaugeAdd("sweep.recording.bytes", -int64(rec.Bytes()))
	if err := experiments.ReplayFanOutContext(ctx, r, rec, geoms, par); err != nil {
		return nil, "", err
	}
	return r, "", nil
}

// Spec converts a normalized request into the shard coordinator's wire
// spec. Impl names stay in request form ("md", "am") — that is what
// workers parse; they echo the display form back and the shard layer
// reconciles the two.
func (r *SweepRequest) Spec() *shard.Spec {
	spec := &shard.Spec{
		SizesKB:    r.SizesKB,
		Assocs:     r.Assocs,
		BlockBytes: r.BlockBytes,
		Penalties:  r.Penalties,
		Impls:      r.Impls,
	}
	for _, w := range r.Workloads {
		spec.Workloads = append(spec.Workloads, shard.Workload{Program: w.Program, Arg: w.Arg})
	}
	return spec
}

// assembleSweepResult builds the final sweep document from
// position-indexed unit results (workload-major, implementation-minor —
// shard.Spec.Units order). It is the single assembly point for the
// local and distributed paths: identical unit numbers in, byte-identical
// document out, regardless of which worker ran which shard.
func assembleSweepResult(req *SweepRequest, units []shard.UnitResult) *SweepResult {
	res := &SweepResult{Workloads: req.Workloads}
	for _, kb := range req.SizesKB {
		for _, a := range req.Assocs {
			res.Geoms = append(res.Geoms, CacheSpec{SizeKB: kb, BlockBytes: req.BlockBytes, Assoc: a})
		}
	}
	for _, u := range units {
		sum := SweepRunSummary{
			Program:      u.Program,
			Arg:          u.Arg,
			Impl:         u.Impl,
			Instructions: u.Instructions,
			TPQ:          u.TPQ,
			IPT:          u.IPT,
			IPQ:          u.IPQ,
		}
		if req.Detail {
			sum.Caches = make([]CacheResult, len(u.Caches))
			for i, g := range u.Caches {
				cr := CacheResult{
					CacheSpec:  CacheSpec{SizeKB: g.SizeKB, BlockBytes: g.BlockBytes, Assoc: g.Assoc},
					IMisses:    g.IMisses,
					DMisses:    g.DMisses,
					Writebacks: g.Writebacks,
					Cycles:     make([]CycleCount, len(req.Penalties)),
				}
				for j, p := range req.Penalties {
					cr.Cycles[j] = CycleCount{
						Penalty: p,
						Cycles:  u.Instructions + uint64(p)*(g.IMisses+g.DMisses),
					}
				}
				sum.Caches[i] = cr
			}
		}
		res.Runs = append(res.Runs, sum)
	}

	// Table 2 is derivable when the grid covers the paper's 8K 4-way
	// reference geometry under both MD and AM.
	g84, mdPos, amPos := -1, -1, -1
	for i, g := range res.Geoms {
		if g.SizeKB == 8 && g.Assoc == 4 {
			g84 = i
			break
		}
	}
	for i, impl := range req.impls {
		switch impl {
		case core.ImplMD:
			mdPos = i
		case core.ImplAM:
			amPos = i
		}
	}
	if g84 < 0 || mdPos < 0 || amPos < 0 {
		return res
	}
	nimpl := len(req.impls)
	cycles := func(u *shard.UnitResult, penalty int) uint64 {
		c := u.Caches[g84]
		return u.Instructions + uint64(penalty)*(c.IMisses+c.DMisses)
	}
	ratio := func(md, am *shard.UnitResult, penalty int) float64 {
		amc := cycles(am, penalty)
		if amc == 0 {
			return 0
		}
		return float64(cycles(md, penalty)) / float64(amc)
	}
	for wi := range req.Workloads {
		md := &units[wi*nimpl+mdPos]
		am := &units[wi*nimpl+amPos]
		if len(md.Caches) <= g84 || len(am.Caches) <= g84 {
			continue
		}
		res.Table2 = append(res.Table2, Table2Row{
			Program: md.Program,
			TPQMD:   md.TPQ, TPQAM: am.TPQ,
			IPTMD: md.IPT, IPTAM: am.IPT,
			IPQMD: md.IPQ, IPQAM: am.IPQ,
			Ratio12: ratio(md, am, 12),
			Ratio24: ratio(md, am, 24),
			Ratio48: ratio(md, am, 48),
		})
	}
	return res
}
