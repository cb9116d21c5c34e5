package shard

import (
	"context"

	"jmtam/internal/core"
	"jmtam/internal/experiments"
)

// runLocal executes one shard in-process — the graceful-degradation
// path when no worker is reachable, and the whole sweep when no workers
// are configured. It runs the exact machinery a worker would
// (experiments.RunOneParContext with the worker-side default options),
// so a locally executed shard is byte-identical to a remote one.
func (c *Coordinator) runLocal(ctx context.Context, spec *Spec, u Unit) (UnitResult, error) {
	impl, err := parseImpl(u.Impl)
	if err != nil {
		return UnitResult{}, &PermanentError{Err: err}
	}
	geoms := spec.CacheConfigs()
	r, err := experiments.RunOneParContext(ctx,
		experiments.Workload{Name: u.Workload.Program, Arg: u.Workload.Arg},
		impl, geoms, core.Options{}, c.cfg.LocalParallelism)
	if err != nil {
		if ctx.Err() != nil {
			return UnitResult{}, ctx.Err()
		}
		return UnitResult{}, &PermanentError{Err: err}
	}
	return UnitResultOf(r), nil
}

// UnitResultOf converts a replayed run into its grid-cell result — the
// one conversion every execution path (local shard, in-process sweep,
// store-served sweep) shares, so their unit numbers cannot drift.
func UnitResultOf(r *experiments.Run) UnitResult {
	res := UnitResult{
		Program:      r.Workload.Name,
		Arg:          r.Workload.Arg,
		Impl:         r.Impl.String(),
		Instructions: r.Instructions,
		TPQ:          r.TPQ,
		IPT:          r.IPT,
		IPQ:          r.IPQ,
		Caches:       make([]GeomStats, len(r.Caches)),
	}
	for i, cs := range r.Caches {
		res.Caches[i] = GeomStats{
			SizeKB:     cs.Config.SizeBytes / 1024,
			BlockBytes: cs.Config.BlockBytes,
			Assoc:      cs.Config.Assoc,
			IMisses:    cs.IMisses,
			DMisses:    cs.DMisses,
			Writebacks: cs.Writebacks,
		}
	}
	return res
}
