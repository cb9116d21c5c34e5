package server

import (
	"context"
	"encoding/json"

	"jmtam/api"
	"jmtam/internal/core"
	"jmtam/internal/experiments"
	"jmtam/internal/programs"
)

// executeRun runs one simulation job: bind a fresh Program onto the
// cached (or freshly compiled) artifact and simulate it once, replaying
// its reference stream through the requested cache geometries while it
// records (experiments.Simulate), then emit one NDJSON progress event
// per geometry, in index order. This is jmtam.Run's path, so the result
// document matches a direct façade call exactly.
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
	cs, err := comp.NewCluster(prog, opt)
	if err != nil {
		return nil, err
	}
	defer cs.Close()
	r, err := experiments.Simulate(ctx, cs, req.geoms, false, nil)
	if err != nil {
		return nil, err
	}
	job.emit(api.Simulated(job.ID, r.Instructions, hit))
	for i, st := range r.Caches {
		job.emit(api.GeometryEvent{
			Type: api.EventGeometry, ID: job.ID, Index: i,
			Cache:      specOf(st.Config),
			IMisses:    st.IMisses,
			DMisses:    st.DMisses,
			Writebacks: st.Writebacks,
		})
	}
	res := runResultOf(req.Program, req.Arg, req.impl,
		r.Instructions, r.Counts.TotalReads(), r.Counts.TotalWrites(),
		r.Threads, r.Quanta, r.TPQ, r.IPT, r.IPQ,
		r.Caches, req.Penalties)
	return json.Marshal(res)
}
