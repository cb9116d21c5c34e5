package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"jmtam/api"
	"jmtam/internal/cache"
	"jmtam/internal/core"
	"jmtam/internal/experiments"
	"jmtam/internal/shard"
	"jmtam/internal/trace"
	"jmtam/internal/tracestore"
)

// executeSweep runs a grid job. With a shard coordinator configured the
// grid is partitioned into leased shards and farmed out to remote
// workers (degrading to this daemon's unit path when none is
// reachable); otherwise the grid runs in-process through sweepUnits.
// Every unit runs through some daemon's unit method and travels as its
// wire row, and the final document is assembled by assembleSweepResult,
// so a distributed or store-served sweep is byte-identical to a local
// one. Sweeps bypass the compiled-code cache: a grid simulates each
// (workload, impl) exactly once anyway, so caching would only pin
// paper-scale artifacts for no repeat benefit.
func (s *Server) executeSweep(ctx context.Context, job *Job, req *SweepRequest, resume map[int]SweepRunSummary) (json.RawMessage, error) {
	return s.cachedResult(ctx, job, "sweep", &req.SweepRequest, func(ctx context.Context) (json.RawMessage, error) {
		return s.freshSweep(ctx, job, req, resume)
	})
}

// freshSweep executes the grid; executeSweep resolves the result cache
// around it. resume (may be nil) maps grid positions to already
// journaled unit rows from before a restart: those positions are
// filled without re-running, every freshly completed unit is
// checkpointed, and because assembly is position-indexed the resumed
// document is byte-identical to an uninterrupted run.
func (s *Server) freshSweep(ctx context.Context, job *Job, req *SweepRequest, resume map[int]SweepRunSummary) (json.RawMessage, error) {
	var units []SweepRunSummary
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
		}, func(i int, u SweepRunSummary) {
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
func (s *Server) checkpointUnit(job *Job, idx int, u SweepRunSummary) {
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
// request grid. A checkpoint that is not a complete row for its
// position (shard.Spec.CheckRow) is dropped — that unit simply re-runs
// — so a stale, torn or pre-upgrade checkpoint can degrade resume but
// never corrupt a result.
func (s *Server) decodeCheckpoints(req *SweepRequest, checkpoints map[int]json.RawMessage) map[int]SweepRunSummary {
	spec := req.Spec()
	units := spec.Units()
	resume := make(map[int]SweepRunSummary)
	for idx, raw := range checkpoints {
		if idx < 0 || idx >= len(units) {
			continue
		}
		var u SweepRunSummary
		if json.Unmarshal(raw, &u) != nil || spec.CheckRow(units[idx], u) != nil {
			continue
		}
		resume[idx] = u
	}
	if len(resume) == 0 {
		return nil
	}
	return resume
}

// sweepUnits executes the grid in-process, one unit at a time: resumed
// positions are filled from their journaled checkpoints, every fresh
// unit is checkpointed as it lands, and each position emits one
// progress event naming where its recording came from.
func (s *Server) sweepUnits(ctx context.Context, job *Job, req *SweepRequest, resume map[int]SweepRunSummary) ([]SweepRunSummary, error) {
	geoms := req.Spec().CacheConfigs()
	nimpl := len(req.impls)
	units := make([]SweepRunSummary, len(req.Workloads)*nimpl)
	for i := range units {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Grid positions are shard.Spec.Units order: workload-major,
		// implementation-minor.
		wl, impl := req.Workloads[i/nimpl], req.impls[i%nimpl]
		u, resumed := resume[i]
		source := "checkpoint"
		if !resumed {
			var err error
			u, source, err = s.unit(ctx, wl, impl, geoms, req.Penalties)
			if err != nil {
				return nil, err
			}
			s.checkpointUnit(job, i, u)
		}
		units[i] = u
		job.emit(api.RunProgressEvent{
			Type: api.EventRun, ID: job.ID,
			Done: i + 1, Total: len(units),
			Program: wl.Program, Arg: wl.Arg,
			Impl: impl.String(), Source: source,
		})
	}
	return units, nil
}

// localUnit is the coordinator's Local: a shard no worker could take
// runs through this daemon's unit path, recording into its store.
func (s *Server) localUnit(ctx context.Context, spec *shard.Spec, u shard.Unit) (SweepRunSummary, error) {
	impl, err := parseImpl(u.Impl)
	if err != nil {
		return SweepRunSummary{}, err
	}
	row, _, err := s.unit(ctx, u.Workload, impl, spec.CacheConfigs(), spec.Penalties)
	return row, err
}

// unit executes one grid cell and returns its wire row. It resolves the
// cell's compacted recording through the fleet — local store, then
// peers, then simulate once — and streams it through the grid without
// materializing the packed form. A simulation compacts its stream while
// it records, through a trace.Encoder on the stream's drain, so it
// holds no more than the compacted bytes; the unit then replays those
// bytes as it would a stored recording's. The simulation summary rides
// in the recording's annotation, so a fetched unit needs no
// re-simulation. For backends with NIC-resident inlets the recorded
// stream is the compute engine's references only (the NIC's stream
// replays against its own fixed geometry, never the grid), so a
// store-served unit is identical to a freshly simulated one for every
// backend. The returned source names where the recording came from.
func (s *Server) unit(ctx context.Context, wl WorkloadSpec, impl core.Impl, geoms []cache.Config, penalties []int) (SweepRunSummary, string, error) {
	desc := tracestore.Desc{Program: wl.Program, Arg: wl.Arg, Impl: impl.String(), Nodes: 1}
	data, src, err := s.fleet.GetOrRecord(ctx, desc.Key(), func(ctx context.Context) ([]byte, error) {
		cs, err := experiments.Build(experiments.Workload{Name: wl.Program, Arg: wl.Arg}, impl, core.Options{})
		if err != nil {
			return nil, err
		}
		defer cs.Close()
		var enc trace.Encoder
		r, err := experiments.Simulate(ctx, cs, nil, true, func(_ int, nic bool, refs []uint32) {
			if !nic {
				enc.Add(refs)
			}
		})
		if err != nil {
			return nil, err
		}
		meta := tracestore.RunMeta{
			Desc:         desc,
			Instructions: r.Instructions,
			TPQ:          r.TPQ,
			IPT:          r.IPT,
			IPQ:          r.IPQ,
			Threads:      r.Threads,
			Quanta:       r.Quanta,
		}
		blob := enc.Bytes(meta.Encode(), &r.Counts)
		s.metrics.GaugeAdd("sweep.recording.bytes", int64(len(blob)))
		defer s.metrics.GaugeAdd("sweep.recording.bytes", -int64(len(blob)))
		return blob, nil
	})
	if err != nil {
		return SweepRunSummary{}, "", err
	}
	info, err := trace.CompactStat(data)
	if err != nil {
		return SweepRunSummary{}, "", fmt.Errorf("stored recording %s: %w", desc.Key(), err)
	}
	meta, err := tracestore.DecodeMeta(info.Annotation)
	if err != nil {
		return SweepRunSummary{}, "", fmt.Errorf("stored recording %s: %w", desc.Key(), err)
	}
	stats, err := experiments.ReplayStreamFanOutContext(ctx, func() (*trace.Reader, error) {
		return trace.NewReader(bytes.NewReader(data))
	}, geoms, 1)
	if err != nil {
		return SweepRunSummary{}, "", err
	}
	row := SweepRunSummary{
		Program:      wl.Program,
		Arg:          wl.Arg,
		Impl:         impl.String(),
		Instructions: meta.Instructions,
		TPQ:          meta.TPQ,
		IPT:          meta.IPT,
		IPQ:          meta.IPQ,
		Caches:       make([]CacheResult, len(stats)),
	}
	for i, c := range stats {
		row.Caches[i] = cacheResultOf(meta.Instructions, c, penalties)
	}
	return row, src.String(), nil
}

// Spec converts a normalized request into the shard coordinator's wire
// spec. Impl names stay in request form ("md", "am") — that is what
// workers parse; they echo the display form back and the shard layer
// reconciles the two.
func (r *SweepRequest) Spec() *shard.Spec {
	return &shard.Spec{
		Workloads:  r.Workloads,
		SizesKB:    r.SizesKB,
		Assocs:     r.Assocs,
		BlockBytes: r.BlockBytes,
		Penalties:  r.Penalties,
		Impls:      r.Impls,
	}
}

// assembleSweepResult builds the final sweep document from
// position-indexed unit rows (workload-major, implementation-minor —
// shard.Spec.Units order). It is the single assembly point for the
// local and distributed paths: identical rows in, byte-identical
// document out, regardless of which worker ran which shard.
func assembleSweepResult(req *SweepRequest, units []SweepRunSummary) *SweepResult {
	res := &SweepResult{Workloads: req.Workloads}
	for _, kb := range req.SizesKB {
		for _, a := range req.Assocs {
			res.Geoms = append(res.Geoms, CacheSpec{SizeKB: kb, BlockBytes: req.BlockBytes, Assoc: a})
		}
	}
	for _, u := range units {
		if !req.Detail {
			u.Caches = nil
		}
		res.Runs = append(res.Runs, u)
	}

	// Table 2 is derivable when the grid covers the paper's 8K 4-way
	// reference geometry under both MD and AM. Its ratios use the
	// paper's penalties, not the request's, so they come from the miss
	// counts rather than the rows' cycles.
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
	cycles := func(u *SweepRunSummary, penalty int) uint64 {
		c := u.Caches[g84]
		return u.Instructions + uint64(penalty)*(c.IMisses+c.DMisses)
	}
	ratio := func(md, am *SweepRunSummary, penalty int) float64 {
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
