// Package shard distributes a sweep's (workload × implementation)
// grid across remote tamsimd workers over the /v1/sweeps HTTP API,
// tolerating worker failure without changing results.
//
// The coordinator partitions the grid into shards — one grid cell,
// i.e. one (workload, implementation) simulation plus its full
// cache-geometry fan-out, per shard — and leases each shard to a
// worker for a bounded time. Transient failures (connection drops,
// 5xxs, mid-stream disconnects) retry with jittered exponential
// backoff on the next worker; an expired lease (worker died or stalled
// mid-shard) re-queues the shard; stragglers past the hedge threshold
// get one bounded duplicate attempt; and when no worker is reachable
// the shard degrades to the caller's Local function — in tamsimd, the
// daemon's own unit path, which records into its recording store.
// Every shard, remote or local, yields the worker's wire row
// (api.SweepRunSummary), and results are assembled position-indexed,
// so the merged output is byte-identical to an in-process sweep
// regardless of which worker ran which shard or how many retries
// occurred.
package shard

import (
	"fmt"

	"jmtam/api"
	"jmtam/internal/cache"
	"jmtam/internal/core"
)

// Workload names one benchmark instance in wire form (the api
// package's WorkloadSpec; the alias keeps shard call sites short).
type Workload = api.WorkloadSpec

// Spec is the sweep to distribute: the same parameter space as a
// tamsimd SweepRequest, already normalized (no empty fields).
type Spec struct {
	Workloads  []Workload `json:"workloads"`
	SizesKB    []int      `json:"sizes_kb"`
	Assocs     []int      `json:"assocs"`
	BlockBytes int        `json:"block_bytes"`
	Penalties  []int      `json:"penalties"`
	Impls      []string   `json:"impls"`
}

// Validate rejects specs the workers would reject, before any shard is
// leased.
func (s *Spec) Validate() error {
	if len(s.Workloads) == 0 || len(s.Impls) == 0 {
		return fmt.Errorf("shard: spec needs at least one workload and one impl")
	}
	if len(s.SizesKB) == 0 || len(s.Assocs) == 0 || s.BlockBytes == 0 {
		return fmt.Errorf("shard: spec needs a full cache-geometry grid")
	}
	for _, impl := range s.Impls {
		if _, err := parseImpl(impl); err != nil {
			return err
		}
	}
	for _, g := range s.CacheConfigs() {
		if err := g.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Unit is one grid cell: a (workload, implementation) simulation plus
// its geometry fan-out. One unit is one leased shard.
type Unit struct {
	Workload Workload
	Impl     string
}

// Units expands the spec's grid in deterministic order:
// workload-major, implementation-minor — the same order a local sweep
// assembles its runs in.
func (s *Spec) Units() []Unit {
	units := make([]Unit, 0, len(s.Workloads)*len(s.Impls))
	for _, w := range s.Workloads {
		for _, impl := range s.Impls {
			units = append(units, Unit{Workload: w, Impl: impl})
		}
	}
	return units
}

// CacheConfigs returns the geometry grid in index order (size-major,
// then associativity), matching the order workers report detail rows
// in.
func (s *Spec) CacheConfigs() []cache.Config {
	var geoms []cache.Config
	for _, kb := range s.SizesKB {
		for _, a := range s.Assocs {
			geoms = append(geoms, cache.Config{
				SizeBytes: kb * 1024, BlockBytes: s.BlockBytes, Assoc: a,
			})
		}
	}
	return geoms
}

// CheckRow reports why r is not a complete row for unit u of s: a row
// names the unit it ran and carries one cache row per geometry, each
// naming its geometry in CacheConfigs order and carrying one cycle
// count per penalty, in Penalties order, that its instructions and
// misses add up to (api.Cycles). Its misses also obey LRU inclusion
// (Mattson et al., 1970), which cache.Bank relies on: at one block size
// and associativity, neither I- nor D-misses rise from a smaller cache
// to a larger one. A row from a worker or a journal checkpoint is
// trusted only when it passes. Writebacks obey no such bound and enter
// no cycle count, so a changed writeback count passes.
func (s *Spec) CheckRow(u Unit, r api.SweepRunSummary) error {
	impl := u.Impl
	if i, err := parseImpl(impl); err == nil {
		impl = i.String()
	}
	if r.Program != u.Workload.Program || r.Arg != u.Workload.Arg || r.Impl != impl {
		return fmt.Errorf("row is (%s %d, %s), want (%s %d, %s)",
			r.Program, r.Arg, r.Impl, u.Workload.Program, u.Workload.Arg, impl)
	}
	geoms := s.CacheConfigs()
	if len(r.Caches) != len(geoms) {
		return fmt.Errorf("%d geometry rows, want %d", len(r.Caches), len(geoms))
	}
	for i, c := range r.Caches {
		g := geoms[i]
		if want := (api.CacheSpec{SizeKB: g.SizeBytes / 1024, BlockBytes: g.BlockBytes, Assoc: g.Assoc}); c.CacheSpec != want {
			return fmt.Errorf("geometry row %d is %+v, want %+v", i, c.CacheSpec, want)
		}
		if len(c.Cycles) != len(s.Penalties) {
			return fmt.Errorf("%d cycle counts in a geometry row, want %d", len(c.Cycles), len(s.Penalties))
		}
		for j, cc := range c.Cycles {
			if p := s.Penalties[j]; cc.Penalty != p {
				return fmt.Errorf("geometry row %d: cycle count %d at penalty %d, want %d", i, j, cc.Penalty, p)
			}
			if want := api.Cycles(r.Instructions, cc.Penalty, c.IMisses, c.DMisses); cc.Cycles != want {
				return fmt.Errorf("geometry row %d: %d cycles at penalty %d, but its instructions and misses add up to %d",
					i, cc.Cycles, cc.Penalty, want)
			}
		}
	}
	for i, small := range r.Caches {
		for j, large := range r.Caches {
			if small.Assoc == large.Assoc && small.SizeKB < large.SizeKB &&
				(large.IMisses > small.IMisses || large.DMisses > small.DMisses) {
				return fmt.Errorf("geometry row %d misses more than the smaller row %d of its associativity (LRU inclusion)", j, i)
			}
		}
	}
	return nil
}

// parseImpl resolves a wire implementation name against the backend
// registry, accepting every registered backend.
func parseImpl(s string) (core.Impl, error) { return core.ParseImpl(s) }
