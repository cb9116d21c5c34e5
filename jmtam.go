// Package jmtam reproduces "Evaluating the Locality Benefits of Active
// Messages" (Spertus & Dally, PPoPP 1995): two implementations of the
// Berkeley Threaded Abstract Machine (TAM) on a simulated J-Machine-like
// message-driven processor, evaluated with a trace-driven cache
// simulator.
//
// The package is a thin façade over the implementation packages:
//
//   - internal/core     — the TAM runtime and its backend registry (the
//     paper's Active Messages and Message-Driven implementations plus
//     four variants), the program-building API and the simulation
//     type that runs any of them on one node or an N-node mesh
//   - internal/machine  — the MDP-like execution engine
//   - internal/cache    — the cache simulator
//   - internal/programs — the paper's six benchmarks
//   - internal/experiments — Table 2, Figures 3-6 and the ablations
//
// # Quick start
//
//	prog := jmtam.Benchmark("ss", 100)
//	res, err := jmtam.Run(jmtam.MD, prog, jmtam.Options{})
//	fmt.Println(res.Instructions, res.TPQ)
//
// To compare the two implementations across the paper's cache parameter
// space, build a Sweep (see NewPaperSweep) and render its tables and
// figures with the Report* helpers.
package jmtam

import (
	"context"
	"fmt"
	"io"

	"jmtam/internal/cache"
	"jmtam/internal/core"
	"jmtam/internal/experiments"
	"jmtam/internal/netsim"
	"jmtam/internal/obs"
	"jmtam/internal/programs"
	"jmtam/internal/report"
	"jmtam/internal/trace"
	"jmtam/internal/word"
)

// Impl selects a TAM backend.
type Impl = core.Impl

// The registered backends: the paper's (unenabled) Active Messages
// implementation, the Message-Driven implementation, the enabled-AM
// uniprocessor variant of §2.4, the Optimistic-Active-Messages-style
// hybrid of §2.4 / [KWW+94], the NIC-offload variant (inlets execute on
// a per-node NIC engine with its own small cache), and the
// Active-Access variant (remote I-structure reads and writes serviced
// directly against the owning node's memory, no inlet dispatch). Use
// core.ParseImpl / core.Backends for name-driven discovery.
const (
	AM        = core.ImplAM
	MD        = core.ImplMD
	AMEnabled = core.ImplAMEnabled
	OAM       = core.ImplOAM
	Offload   = core.ImplOffload
	AA        = core.ImplAA
)

// Re-exported program-building types: a Program is a set of Codeblocks,
// each holding Inlets (message handlers) and Threads whose bodies are
// emitted through the Body macro builder. See examples/custom for a
// complete program written against this API.
type (
	Program   = core.Program
	Codeblock = core.Codeblock
	Inlet     = core.Inlet
	Thread    = core.Thread
	Body      = core.Body
	Host      = core.Host
	Options   = core.Options
	Sim       = core.Sim
)

// CacheConfig describes one cache geometry (size, block, associativity).
type CacheConfig = cache.Config

// Multi-node re-exports: set Options.Nodes to a power of two (at most
// 64) and the six benchmarks run unmodified on an N-node mesh — frames
// are placed across nodes by Options.Placement and remote I-structure
// requests travel the netsim mesh as active messages. Run handles any
// node count; BuildCluster exposes the simulation directly for callers
// that need per-node access.
type (
	// Placement selects the frame/heap placement policy consulted at
	// falloc/halloc time when Options.Nodes > 1.
	Placement = core.Placement
	// ClusterSim is one ready-to-run simulation on any node count,
	// holding one Sim per node.
	ClusterSim = core.ClusterSim
	// NetConfig describes the mesh (dimensions and latency model);
	// set Options.Net to override the near-square default.
	NetConfig = netsim.Config
)

// The placement policies: round-robin spreads frames across the mesh
// (the default); local keeps every allocation on the requesting node.
const (
	PlaceRoundRobin = core.PlaceRoundRobin
	PlaceLocal      = core.PlaceLocal
)

// ParsePlacement parses a placement policy name ("round-robin", "rr",
// "local") as used by the command-line -placement flags.
func ParsePlacement(s string) (Placement, error) { return core.ParsePlacement(s) }

// DefaultNetConfig returns the near-square mesh configuration used
// when Options.Net is nil.
func DefaultNetConfig(nodes int) NetConfig { return netsim.DefaultConfig(nodes) }

// BuildCluster compiles a program mesh-aware for opt.Nodes nodes and
// returns the ready-to-run cluster simulation.
func BuildCluster(impl Impl, p *Program, opt Options) (*ClusterSim, error) {
	return core.BuildCluster(impl, p, opt)
}

// Observability re-exports: set Options.Obs to a Sink (NewSink) before
// Build/Run and the simulation populates its metrics registry and,
// optionally, a Chrome-trace-event timeline loadable in Perfetto.
// Instrumentation never feeds back into execution — results are
// identical with a sink attached or not.
type (
	Sink        = obs.Sink
	Metrics     = obs.Registry
	EventBuffer = obs.EventBuffer
	Histogram   = obs.Histogram
)

// SinkOption configures a Sink at construction; see NewSink.
type SinkOption = obs.Option

// WithEvents attaches an in-memory timeline event buffer to the sink,
// exportable with EventBuffer.WriteJSON and loadable in Perfetto.
func WithEvents() SinkOption { return obs.WithEvents() }

// WithEventCap bounds the timeline at n events; later events are
// dropped and counted (EventBuffer.Dropped), so paper-scale runs can be
// traced without unbounded buffers.
func WithEventCap(n int) SinkOption { return obs.WithEventCap(n) }

// WithEventWriter streams the timeline to w as events are emitted (the
// same Chrome-trace-event JSON WriteJSON produces, built incrementally
// in bounded memory). Call EventBuffer.Finish after the run to
// terminate the document.
func WithEventWriter(w io.Writer) SinkOption { return obs.WithEventWriter(w) }

// NewSink returns a sink with a metrics registry, configured by the
// given options: NewSink() is metrics-only; add WithEvents,
// WithEventCap or WithEventWriter for a timeline.
func NewSink(opts ...SinkOption) *Sink { return obs.New(opts...) }

// RenderMetrics renders a metrics registry as an ASCII report: counters,
// gauges, then histograms as bar charts.
func RenderMetrics(r *Metrics) string { return report.Metrics(r) }

// RenderHistogram renders one log2-bucketed histogram as an ASCII bar
// chart.
func RenderHistogram(title string, h *Histogram) string { return report.Histogram(title, h) }

// Word is the simulated machine's tagged word; Int, Float and Ptr build
// values for start messages and memory pokes.
type Word = word.Word

// Int returns an integer word.
func Int(v int64) Word { return word.Int(v) }

// Float returns a floating-point word.
func Float(v float64) Word { return word.Float(v) }

// Ptr returns an address word.
func Ptr(a uint32) Word { return word.Ptr(a) }

// Build compiles a program with the given backend, returning a
// ready-to-run simulation. To measure caches, attach a recording as
// Sim.Tracer before calling Sim.Run and replay it afterwards; Run does
// both.
func Build(impl Impl, p *Program, opt Options) (*Sim, error) {
	return core.Build(impl, p, opt)
}

// BuildContext is Build honouring a context: an already-cancelled
// context returns its error without compiling, and the returned Sim's
// RunContext continues the cancellation story into the step loop.
func BuildContext(ctx context.Context, impl Impl, p *Program, opt Options) (*Sim, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return core.Build(impl, p, opt)
}

// Benchmark returns one of the paper's six benchmarks ("mmt", "qs",
// "dtw", "paraffins", "wavefront", "ss") at the given problem size; a
// size of 0 selects the paper's argument.
func Benchmark(name string, size int) *Program {
	spec, err := programs.ByName(name)
	if err != nil {
		panic(err)
	}
	if size == 0 {
		size = spec.Arg
	}
	return spec.Build(size)
}

// BenchmarkNames lists the six benchmark names in Table 2 order.
func BenchmarkNames() []string {
	var ns []string
	for _, s := range programs.All() {
		ns = append(ns, s.Name)
	}
	return ns
}

// Result summarizes one simulation.
type Result struct {
	Program string
	Impl    Impl
	// Nodes is the mesh size the program ran on (1 = uniprocessor)
	// and Ticks the elapsed lockstep time (instructions + 1 on one
	// node). Multi-node counts aggregate over all nodes.
	Nodes        int
	Ticks        uint64
	Instructions uint64
	Reads        uint64
	Writes       uint64
	Threads      uint64
	Quanta       uint64
	TPQ          float64
	IPT          float64
	IPQ          float64
	// Caches reports, for each geometry passed to Run, instruction and
	// data misses and writebacks.
	Caches []experiments.CacheStats
}

// Cycles returns total execution cycles for cache geometry i under the
// given miss penalty (one cycle per instruction plus penalty per miss).
func (r *Result) Cycles(i, penalty int) uint64 {
	c := r.Caches[i]
	return r.Instructions + uint64(penalty)*(c.IMisses+c.DMisses)
}

// Run builds and executes prog under impl with the given cache
// geometries attached, verifying the program's result. The simulation
// records its reference stream once; the experiments geometry fan-out
// replays the recording through every cache pair (on up to GOMAXPROCS
// workers), yielding statistics identical to inline evaluation.
func Run(impl Impl, p *Program, opt Options, geoms ...CacheConfig) (*Result, error) {
	return RunContext(context.Background(), impl, p, opt, geoms...)
}

// RunContext is Run with cooperative cancellation: the simulation polls
// the context every machine.CancelCheckInterval instructions and the
// geometry fan-out checks it between trace chunks, so a cancelled run — even
// one hung mid-benchmark — returns an error wrapping ctx.Err() within
// one check interval.
func RunContext(ctx context.Context, impl Impl, p *Program, opt Options, geoms ...CacheConfig) (*Result, error) {
	// Surface geometry errors before paying for a simulation.
	for _, g := range geoms {
		if err := g.Validate(); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cs, err := core.BuildCluster(impl, p, opt)
	if err != nil {
		return nil, err
	}
	defer cs.Close()
	recs := make([]*trace.Recording, cs.Nodes)
	for k, s := range cs.Sims {
		recs[k] = &trace.Recording{}
		s.Tracer = recs[k]
	}
	if err := cs.RunContext(ctx); err != nil {
		return nil, err
	}
	g := cs.MergedGran()
	res := &Result{
		Program:      p.Name,
		Impl:         impl,
		Nodes:        cs.Nodes,
		Ticks:        cs.Ticks(),
		Instructions: cs.Instructions(),
		Threads:      g.Threads,
		Quanta:       g.Quanta,
		TPQ:          g.TPQ(),
		IPT:          g.IPT(),
		IPQ:          g.IPQ(),
	}
	for _, rec := range recs {
		res.Reads += rec.TotalReads()
		res.Writes += rec.TotalWrites()
	}
	// Each node owns a private cache pair per geometry; misses sum.
	r := &experiments.Run{}
	if err := experiments.ReplayClusterFanOutContext(ctx, r, recs, geoms, 0); err != nil {
		return nil, err
	}
	res.Caches = r.Caches
	return res, nil
}

// CompareAt runs prog under both implementations with a single cache
// geometry and returns the MD/AM total-cycle ratio at the given miss
// penalty — the paper's headline metric.
func CompareAt(p func() *Program, geom CacheConfig, penalty int, opt Options) (float64, error) {
	md, err := Run(MD, p(), opt, geom)
	if err != nil {
		return 0, err
	}
	am, err := Run(AM, p(), opt, geom)
	if err != nil {
		return 0, err
	}
	amc := am.Cycles(0, penalty)
	if amc == 0 {
		return 0, fmt.Errorf("jmtam: zero cycle count")
	}
	return float64(md.Cycles(0, penalty)) / float64(amc), nil
}
