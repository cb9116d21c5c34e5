package server

import (
	"context"
	"encoding/json"

	"jmtam/api"
	"jmtam/internal/core"
	"jmtam/internal/experiments"
	"jmtam/internal/programs"
	"jmtam/internal/trace"
)

// executeRun runs one simulation job: bind a fresh Program onto the
// cached (or freshly compiled) artifact, simulate once with a trace
// recording attached, then fan the recording out across the requested
// cache geometries and emit one NDJSON progress event per geometry, in
// index order. The arithmetic is jmtam.Run's — one combined recording
// through the experiments fan-out, position-indexed assembly — so the
// result document matches a direct façade call exactly.
func (s *Server) executeRun(ctx context.Context, job *Job, req *RunRequest) (json.RawMessage, error) {
	return s.cachedResult(ctx, job, "run", &req.RunRequest, func(ctx context.Context) (json.RawMessage, error) {
		return s.freshRun(ctx, job, req)
	})
}

// freshRun executes the simulation; executeRun resolves the result
// cache around it.
func (s *Server) freshRun(ctx context.Context, job *Job, req *RunRequest) (json.RawMessage, error) {
	spec, err := programs.ByName(req.Program)
	if err != nil {
		return nil, err
	}
	// Programs carry per-run closure state (Setup/Verify), so every job
	// gets a fresh Program; only the immutable compiled artifact is
	// shared across jobs.
	prog := spec.Build(req.Arg)
	key := cacheKey{prog: req.Program, arg: req.Arg, impl: req.impl}
	opt := core.Options{MaxInstructions: req.MaxInstructions}
	comp, hit, err := s.cache.get(key, func() (*core.Compiled, error) {
		return core.Compile(req.impl, prog, opt)
	})
	if err != nil {
		return nil, err
	}
	sim, err := comp.NewSim(prog, opt)
	if err != nil {
		return nil, err
	}
	rec := &trace.Recording{}
	sim.Tracer = rec
	defer sim.Close()
	if err := sim.RunContext(ctx); err != nil {
		return nil, err
	}
	job.emit(api.Simulated(job.ID, sim.M.Instructions(), hit))

	r := &experiments.Run{}
	if err := experiments.ReplayFanOutContext(ctx, r, rec, req.geoms, s.cfg.ReplayParallelism); err != nil {
		return nil, err
	}
	stats := r.Caches
	for i, st := range stats {
		job.emit(api.GeometryEvent{
			Type: api.EventGeometry, ID: job.ID, Index: i,
			Cache:      specOf(st.Config),
			IMisses:    st.IMisses,
			DMisses:    st.DMisses,
			Writebacks: st.Writebacks,
		})
	}
	res := runResultOf(req.Program, req.Arg, req.impl,
		sim.M.Instructions(), rec.TotalReads(), rec.TotalWrites(),
		sim.Gran.Threads, sim.Gran.Quanta,
		sim.Gran.TPQ(), sim.Gran.IPT(), sim.Gran.IPQ(),
		stats, req.Penalties)
	return json.Marshal(res)
}
