// Package api is the shared typed surface of the tamsimd serving
// protocol: request and response documents, job lifecycle states, the
// NDJSON event stream, and the structured error envelope. It is the
// single source of truth for the wire format — the server
// (internal/server), the shard coordinator (internal/shard), the CLI
// client (cmd/sweepctl) and the load generator (cmd/loadgen) all
// marshal and unmarshal through these types, so a field added here is
// visible end to end and no component re-declares struct literals or
// emits map[string]any documents.
//
// The package is deliberately a leaf: plain data and the one NDJSON
// stream reader (ReadStream), no simulator imports. Validation and default resolution live with the server
// (which owns the program registry and cache-geometry rules); clients
// may submit sparse documents and rely on server-side normalization.
//
// See api.md at the repository root for the endpoint-by-endpoint
// protocol reference.
package api

import "encoding/json"

// CacheSpec is one cache geometry in wire form.
type CacheSpec struct {
	SizeKB     int `json:"size_kb"`
	BlockBytes int `json:"block_bytes"`
	Assoc      int `json:"assoc"`
}

// WorkloadSpec names one benchmark instance in wire form.
type WorkloadSpec struct {
	Program string `json:"program"`
	Arg     int    `json:"arg,omitempty"`
}

// RunRequest submits one simulation: a benchmark at a problem size under
// one implementation, evaluated against a set of cache geometries.
// Zero-valued fields take the server defaults (the paper's argument for
// the program, MD, an 8K 4-way 64-byte cache, penalties 12/24/48).
type RunRequest struct {
	Program         string      `json:"program"`
	Arg             int         `json:"arg,omitempty"`
	Impl            string      `json:"impl,omitempty"`
	Caches          []CacheSpec `json:"caches,omitempty"`
	Penalties       []int       `json:"penalties,omitempty"`
	MaxInstructions uint64      `json:"max_instructions,omitempty"`
}

// SweepRequest submits a parameter-space sweep: workloads × impls ×
// cache geometries, the experiments.Sweep grid over HTTP. Scale picks a
// preset workload list ("quick" reduced sizes, "paper" the full Table 2
// arguments) when Workloads is empty.
type SweepRequest struct {
	Scale      string         `json:"scale,omitempty"`
	Workloads  []WorkloadSpec `json:"workloads,omitempty"`
	SizesKB    []int          `json:"sizes_kb,omitempty"`
	Assocs     []int          `json:"assocs,omitempty"`
	BlockBytes int            `json:"block_bytes,omitempty"`
	Penalties  []int          `json:"penalties,omitempty"`
	Impls      []string       `json:"impls,omitempty"`
	// Detail adds per-geometry cache statistics to each run summary —
	// the shard coordinator requires it to reassemble a distributed
	// sweep.
	Detail bool `json:"detail,omitempty"`
}

// CycleCount is total execution cycles under one miss penalty.
type CycleCount struct {
	Penalty int    `json:"penalty"`
	Cycles  uint64 `json:"cycles"`
}

// Cycles returns the total cycles a geometry row reports under a miss
// penalty: one per instruction, plus the penalty per I- or D-cache
// miss.
func Cycles(instrs uint64, penalty int, iMisses, dMisses uint64) uint64 {
	return instrs + uint64(penalty)*(iMisses+dMisses)
}

// CacheResult reports one geometry's misses and derived cycle counts.
type CacheResult struct {
	CacheSpec
	IMisses    uint64       `json:"i_misses"`
	DMisses    uint64       `json:"d_misses"`
	Writebacks uint64       `json:"writebacks"`
	Cycles     []CycleCount `json:"cycles"`
}

// RunResult is the final document of a run job: the simulation summary
// plus per-geometry cache statistics.
type RunResult struct {
	Program      string        `json:"program"`
	Arg          int           `json:"arg"`
	Impl         string        `json:"impl"`
	Instructions uint64        `json:"instructions"`
	Reads        uint64        `json:"reads"`
	Writes       uint64        `json:"writes"`
	Threads      uint64        `json:"threads"`
	Quanta       uint64        `json:"quanta"`
	TPQ          float64       `json:"tpq"`
	IPT          float64       `json:"ipt"`
	IPQ          float64       `json:"ipq"`
	Caches       []CacheResult `json:"caches"`
}

// SweepRunSummary is one (workload, implementation) outcome within a
// sweep result. It is also the one form a sweep unit travels in: a
// shard worker returns it to the coordinator, and a journal checkpoint
// holds it, with Caches always filled.
type SweepRunSummary struct {
	Program      string  `json:"program"`
	Arg          int     `json:"arg"`
	Impl         string  `json:"impl"`
	Instructions uint64  `json:"instructions"`
	TPQ          float64 `json:"tpq"`
	IPT          float64 `json:"ipt"`
	IPQ          float64 `json:"ipq"`
	// Caches is present when the request set detail: per-geometry miss
	// statistics in geometry index order.
	Caches []CacheResult `json:"caches,omitempty"`
}

// Table2Row mirrors experiments.Table2Row in wire form.
type Table2Row struct {
	Program string  `json:"program"`
	TPQMD   float64 `json:"tpq_md"`
	TPQAM   float64 `json:"tpq_am"`
	IPTMD   float64 `json:"ipt_md"`
	IPTAM   float64 `json:"ipt_am"`
	IPQMD   float64 `json:"ipq_md"`
	IPQAM   float64 `json:"ipq_am"`
	Ratio12 float64 `json:"ratio_12"`
	Ratio24 float64 `json:"ratio_24"`
	Ratio48 float64 `json:"ratio_48"`
}

// SweepResult is the final document of a sweep job.
type SweepResult struct {
	Workloads []WorkloadSpec    `json:"workloads"`
	Geoms     []CacheSpec       `json:"geoms"`
	Runs      []SweepRunSummary `json:"runs"`
	// Table2 is present when the sweep covers the 8K 4-way geometry
	// (the paper's Table 2 reference point) and both MD and AM.
	Table2 []Table2Row `json:"table2,omitempty"`
}

// JobState is a job's lifecycle phase.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final: the job will never emit
// another event or change state again.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobStatus is the wire form of a job's current state
// (GET /v1/runs/{id} and the list views).
type JobStatus struct {
	ID     string          `json:"id"`
	Kind   string          `json:"kind"`
	Tenant string          `json:"tenant,omitempty"`
	State  JobState        `json:"state"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}
