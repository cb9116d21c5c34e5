// Package server implements tamsimd's HTTP/JSON serving layer: a job
// registry with NDJSON result streaming, a bounded worker pool for
// simulation and sweep jobs, a compiled-code cache keyed by (program,
// size, implementation), API-key tenancy with token-bucket admission,
// a content-addressed result cache, and a /metricz endpoint exposing
// server-wide observability.
//
// Wire types live in the root api package — the server re-exports them
// as aliases and adds normalization on top. The package reuses the
// façade's execution machinery — core.Compile / Compiled.NewCluster for
// cached builds; experiments.Simulate for a run job's cache fan-out,
// which replays while the simulation records, and for a sweep unit's
// recording, which a trace.Encoder compacts while the simulation
// records it; and the recording store plus
// experiments.ReplayStreamFanOutContext for each sweep unit's replay —
// so a job served over HTTP produces byte-identical results to a direct
// jmtam.Run call.
package server

import (
	"fmt"

	"jmtam/api"
	"jmtam/internal/cache"
	"jmtam/internal/core"
	"jmtam/internal/experiments"
	"jmtam/internal/programs"
)

// Wire-type aliases: the api package is the single source of truth for
// the serving protocol; these keep the server's own code (and existing
// callers) reading naturally.
type (
	CacheSpec       = api.CacheSpec
	WorkloadSpec    = api.WorkloadSpec
	CycleCount      = api.CycleCount
	CacheResult     = api.CacheResult
	RunResult       = api.RunResult
	SweepRunSummary = api.SweepRunSummary
	Table2Row       = api.Table2Row
	SweepResult     = api.SweepResult
	JobState        = api.JobState
	JobStatus       = api.JobStatus
)

const (
	StateQueued   = api.StateQueued
	StateRunning  = api.StateRunning
	StateDone     = api.StateDone
	StateFailed   = api.StateFailed
	StateCanceled = api.StateCanceled
)

func configOf(c CacheSpec) cache.Config {
	return cache.Config{SizeBytes: c.SizeKB * 1024, BlockBytes: c.BlockBytes, Assoc: c.Assoc}
}

func specOf(g cache.Config) CacheSpec {
	return CacheSpec{SizeKB: g.SizeBytes / 1024, BlockBytes: g.BlockBytes, Assoc: g.Assoc}
}

// parseImpl resolves a wire implementation name against the backend
// registry, so the serving layer accepts every registered backend
// (including display-name spellings from normalized, journaled
// requests) without its own name table.
func parseImpl(s string) (core.Impl, error) { return core.ParseImpl(s) }

// RunRequest is the wire request plus the server-side resolution of its
// fields (parsed implementation, validated geometries). The embedded
// api.RunRequest marshals flat, so journaled requests keep the wire
// shape.
type RunRequest struct {
	api.RunRequest

	impl  core.Impl
	geoms []cache.Config
}

// Normalize validates the request and resolves defaults. It must be
// called once before the request is executed or journaled.
func (r *RunRequest) Normalize(defaultMaxInstrs uint64) error {
	spec, err := programs.ByName(r.Program)
	if err != nil {
		return err
	}
	if r.Arg == 0 {
		r.Arg = spec.Arg
	}
	if r.Arg < 0 {
		return fmt.Errorf("arg %d out of range", r.Arg)
	}
	if r.impl, err = parseImpl(r.Impl); err != nil {
		return err
	}
	r.Impl = r.impl.String()
	if len(r.Caches) == 0 {
		r.Caches = []CacheSpec{{SizeKB: 8, BlockBytes: 64, Assoc: 4}}
	}
	r.geoms = make([]cache.Config, len(r.Caches))
	for i, c := range r.Caches {
		g := configOf(c)
		if err := g.Validate(); err != nil {
			return err
		}
		r.geoms[i] = g
	}
	if len(r.Penalties) == 0 {
		r.Penalties = []int{12, 24, 48}
	}
	for _, p := range r.Penalties {
		if p < 0 {
			return fmt.Errorf("penalty %d out of range", p)
		}
	}
	if r.MaxInstructions == 0 {
		r.MaxInstructions = defaultMaxInstrs
	}
	return nil
}

// runResultOf converts a façade-shaped result (the run summary plus
// per-geometry stats) into the wire document. It is the single
// conversion point, so a server job and a direct jmtam.Run compared
// through it are byte-identical by construction or not at all.
func runResultOf(program string, arg int, impl core.Impl, instrs, reads, writes, threads, quanta uint64,
	tpq, ipt, ipq float64, stats []experiments.CacheStats, penalties []int) *RunResult {
	res := &RunResult{
		Program:      program,
		Arg:          arg,
		Impl:         impl.String(),
		Instructions: instrs,
		Reads:        reads,
		Writes:       writes,
		Threads:      threads,
		Quanta:       quanta,
		TPQ:          tpq,
		IPT:          ipt,
		IPQ:          ipq,
		Caches:       make([]CacheResult, len(stats)),
	}
	for i, c := range stats {
		res.Caches[i] = cacheResultOf(instrs, c, penalties)
	}
	return res
}

// cacheResultOf converts one geometry's statistics into its wire row,
// with the total cycles under each penalty. Run documents and sweep
// unit rows both go through it.
func cacheResultOf(instrs uint64, c experiments.CacheStats, penalties []int) CacheResult {
	cr := CacheResult{
		CacheSpec:  specOf(c.Config),
		IMisses:    c.IMisses,
		DMisses:    c.DMisses,
		Writebacks: c.Writebacks,
		Cycles:     make([]CycleCount, len(penalties)),
	}
	for j, p := range penalties {
		cr.Cycles[j] = CycleCount{
			Penalty: p,
			Cycles:  api.Cycles(instrs, p, c.IMisses, c.DMisses),
		}
	}
	return cr
}

// SweepRequest is the wire request plus the server-side resolution of
// its implementation list.
type SweepRequest struct {
	api.SweepRequest

	impls []core.Impl
}

// Normalize validates the request and resolves defaults. It must be
// called once before the request is executed or journaled.
func (r *SweepRequest) Normalize() error {
	if len(r.Workloads) == 0 {
		var ws []experiments.Workload
		switch r.Scale {
		case "", "quick":
			r.Scale = "quick"
			ws = experiments.QuickWorkloads()
		case "paper":
			ws = experiments.PaperWorkloads()
		default:
			return fmt.Errorf("unknown scale %q (want quick|paper)", r.Scale)
		}
		for _, w := range ws {
			r.Workloads = append(r.Workloads, WorkloadSpec{Program: w.Name, Arg: w.Arg})
		}
	}
	for i, w := range r.Workloads {
		spec, err := programs.ByName(w.Program)
		if err != nil {
			return err
		}
		if w.Arg == 0 {
			r.Workloads[i].Arg = spec.Arg
		}
	}
	if len(r.SizesKB) == 0 {
		r.SizesKB = []int{1, 2, 4, 8, 16, 32, 64, 128}
	}
	if len(r.Assocs) == 0 {
		r.Assocs = []int{1, 2, 4}
	}
	if r.BlockBytes == 0 {
		r.BlockBytes = 64
	}
	if len(r.Penalties) == 0 {
		r.Penalties = []int{12, 24, 48}
	}
	if len(r.Impls) == 0 {
		r.Impls = []string{"md", "am"}
	}
	r.impls = make([]core.Impl, len(r.Impls))
	for i, s := range r.Impls {
		impl, err := parseImpl(s)
		if err != nil {
			return err
		}
		r.impls[i] = impl
	}
	// Every geometry of the grid, before anything records.
	return r.Spec().Validate()
}
