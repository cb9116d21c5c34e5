// Command tamsim runs one benchmark under one TAM implementation and
// reports instruction counts, granularity and cache behaviour:
//
//	tamsim -prog ss -arg 100 -impl md
//	tamsim -prog mmt -arg 20 -impl am -cache 8 -assoc 4 -block 64
//	tamsim -prog qs -impl md -cache 1,8,64 -assoc 1,4 -parallel 4
//	tamsim -prog qs -impl am -dump
//	tamsim -prog wavefront -impl am -nodes 4 -placement round-robin
//
// -cache, -assoc and -block accept comma-separated lists; every
// combination is evaluated. The simulation runs once, recording its
// reference stream, and the recording is replayed through each geometry
// on a worker pool bounded by -parallel (0 = GOMAXPROCS).
//
// With -nodes N (a power of two, at most 64) the benchmark runs
// unmodified on an N-node mesh: the runtime compiles mesh-aware code,
// frames are spread by the -placement policy, and remote I-structure
// requests travel the network as active messages. Each node records
// its own reference stream and owns a private cache pair per geometry;
// misses are summed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"jmtam/internal/cache"
	"jmtam/internal/core"
	"jmtam/internal/experiments"
	"jmtam/internal/isa"
	"jmtam/internal/obs"
	"jmtam/internal/programs"
	"jmtam/internal/report"
	"jmtam/internal/trace"
)

func main() {
	prog := flag.String("prog", "ss", "benchmark: mmt|qs|dtw|paraffins|wavefront|ss")
	arg := flag.Int("arg", 0, "problem size (0 = paper argument)")
	implName := flag.String("impl", "md", "backend: "+strings.Join(core.BackendNames(), "|"))
	sizesKB := flag.String("cache", "8", "cache size(s) in Kbytes (I and D), comma-separated")
	assocs := flag.String("assoc", "4", "set associativity list, comma-separated")
	blocks := flag.String("block", "64", "block size(s) in bytes, comma-separated")
	par := flag.Int("parallel", 0, "concurrent trace replays (0 = GOMAXPROCS)")
	dump := flag.Bool("dump", false, "print disassembly instead of running")
	hist := flag.Bool("hist", false, "also print the quantum-size histogram and instruction mix")
	eventsOut := flag.String("events", "", "write a Perfetto/Chrome trace-event timeline (JSON) to this file")
	metricsOut := flag.String("metrics", "", "write the observability metrics registry (JSON) to this file")
	nodes := flag.Int("nodes", 1, "mesh node count (power of two, at most 64); >1 runs the multi-node TAM runtime")
	placementName := flag.String("placement", "round-robin", "frame placement policy for -nodes > 1: round-robin|local")
	pairedQW := flag.Bool("paired-queue-writes", false, "model the MDP's two-word-per-cycle queue write-through (halves charged queue-buffer writes)")
	flag.Parse()

	impl, err := core.ParseImpl(*implName)
	if err != nil {
		fail(err)
	}

	placement, err := core.ParsePlacement(*placementName)
	if err != nil {
		fail(err)
	}

	spec, err := programs.ByName(*prog)
	if err != nil {
		fail(err)
	}
	n := *arg
	if n == 0 {
		n = spec.Arg
	}

	if *dump {
		c, err := core.Compile(impl, spec.Build(n),
			core.Options{Nodes: *nodes, Placement: placement})
		if err != nil {
			fail(err)
		}
		fmt.Println("; --- system code ---")
		fmt.Print(c.RT.Sys.Dump())
		fmt.Println("; --- user code ---")
		fmt.Print(c.RT.User.Dump())
		return
	}

	geoms, err := geometries(*sizesKB, *assocs, *blocks)
	if err != nil {
		fail(err)
	}

	sink := newSink(*eventsOut, *metricsOut, *hist)
	opt := core.Options{Nodes: *nodes, Placement: placement, PairedQueueWrites: *pairedQW, Obs: sink}
	cs, err := core.BuildCluster(impl, spec.Build(n), opt)
	if err != nil {
		fail(err)
	}
	// Each node records its own reference stream. NIC-offload backends
	// split it by execution locus: inlets and system handlers record
	// into a second stream that replays against the node's private NIC
	// cache pair.
	recs := make([]*trace.Recording, cs.Nodes)
	var nicRecs []*trace.Recording
	if impl.Caps().NICInlets {
		nicRecs = make([]*trace.Recording, cs.Nodes)
	}
	for k, s := range cs.Sims {
		recs[k] = &trace.Recording{}
		s.Tracer = recs[k]
		if nicRecs != nil {
			nicRecs[k] = &trace.Recording{}
			s.NICTracer = nicRecs[k]
		}
	}
	if err := cs.Run(); err != nil {
		fail(err)
	}

	// Replay the recorded streams through every geometry on the
	// experiments fan-out; each node owns a private cache pair per
	// geometry and misses sum. With a sink attached the replay also
	// attributes misses by cause and class into its registry, under each
	// geometry's label.
	r := &experiments.Run{Instructions: cs.Instructions()}
	if sink != nil {
		r.Metrics = sink.Metrics
	}
	if err := experiments.ReplayClusterFanOutContext(context.Background(), r, recs, geoms, *par); err != nil {
		fail(err)
	}
	var counts trace.Counts
	var refs, traceBytes, nicRefs uint64
	for _, rec := range recs {
		counts.Add(&rec.Counts)
		refs += uint64(rec.Len())
		traceBytes += uint64(rec.Bytes())
	}
	for _, rec := range nicRecs {
		nicRefs += uint64(rec.Len())
	}
	if sink != nil {
		counts.AddTo(sink.Metrics, "")
		if sink.Events != nil && len(geoms) > 0 {
			// Per-node miss-density counter tracks: per-1K-instruction
			// I/D cache miss samples at the first geometry, on the same
			// instruction clock as the scheduler spans, so conflict-miss
			// bursts line up with the quanta they occur in. NIC streams
			// get their own labeled tracks at the NIC geometry.
			for k, rec := range recs {
				if _, err := rec.MissDensityTrack(sink.Events, int32(k), geoms[0], 1000, ""); err != nil {
					fail(err)
				}
			}
			for k, rec := range nicRecs {
				if _, err := rec.MissDensityTrack(sink.Events, int32(k), experiments.NICGeom, 1000, "nic"); err != nil {
					fail(err)
				}
			}
		}
	}

	// Sum the per-node NIC streams (if any) through private pairs of the
	// NIC geometry; the cycle lines below then take the slower engine,
	// as the experiments package does.
	if nicRecs != nil {
		r.NIC = replayNIC(nicRecs, cs.HighInstructions())
	}
	nic := r.NIC

	// A mesh adds its placement, per-node, tick and network lines.
	mesh := cs.C != nil
	g := cs.MergedGran()
	if mesh {
		fmt.Printf("%s %d under %v on %d nodes (%v placement)\n", spec.Name, n, impl, cs.Nodes, placement)
	} else {
		fmt.Printf("%s %d under %v\n", spec.Name, n, impl)
	}
	fmt.Printf("  %s\n\n", spec.Doc)
	fmt.Printf("  instructions      %12d\n", r.Instructions)
	if mesh {
		for k, s := range cs.Sims {
			fmt.Printf("    node %-2d         %12d\n", k, s.M.Instructions())
		}
		fmt.Printf("  elapsed ticks     %12d\n", cs.Ticks())
	}
	fmt.Printf("  data reads        %12d\n", counts.TotalReads())
	fmt.Printf("  data writes       %12d\n", counts.TotalWrites())
	fmt.Printf("  threads           %12d\n", g.Threads)
	fmt.Printf("  quanta            %12d\n", g.Quanta)
	fmt.Printf("  threads/quantum   %12.1f\n", g.TPQ())
	fmt.Printf("  instrs/thread     %12.1f\n", g.IPT())
	fmt.Printf("  instrs/quantum    %12.1f\n", g.IPQ())
	fmt.Printf("  trace             %12d refs (%d KB recorded)\n", refs, traceBytes/1024)
	suffix, nicHead := "", fmt.Sprintf("nic engine (private cache %v)", experiments.NICGeom)
	if mesh {
		fmt.Printf("  net messages      %12d delivered (%d words sent)\n",
			cs.C.Net.Delivered, cs.C.Net.WordsSent)
		if sink != nil {
			for _, name := range sink.Metrics.CounterNames() {
				if strings.HasPrefix(name, "net.class.") || strings.HasPrefix(name, "net.latency.") {
					fmt.Printf("    %-16s%12d\n", strings.TrimPrefix(name, "net."),
						sink.Metrics.Counter(name).Value())
				}
			}
		}
		suffix, nicHead = " (per node)", fmt.Sprintf("nic engines (private cache %v per node)", experiments.NICGeom)
	}
	printCaches(r, suffix)
	if nic != nil {
		fmt.Printf("\n  %s\n", nicHead)
		fmt.Printf("  instructions      %12d\n", nic.Instructions)
		fmt.Printf("  trace             %12d refs\n", nicRefs)
		fmt.Printf("  I-misses          %12d\n", nic.IMisses)
		fmt.Printf("  D-misses          %12d\n", nic.DMisses)
		fmt.Printf("  writebacks        %12d\n", nic.Writebacks)
	}

	if *hist {
		fmt.Println()
		fmt.Print(indent(report.Histogram(
			"quantum-size histogram (threads per quantum)", &g.QuantumHist), "  "))
		fmt.Print(indent(report.Histogram(
			"quantum-length histogram (instructions per quantum)", &g.QuantumInstrs), "  "))
		fmt.Printf("    largest quantum: %d threads\n", g.MaxQuantum())
		fmt.Println("\n  dynamic opcode counts (top 12)")
		type oc struct {
			op    isa.Op
			count uint64
		}
		var ops [isa.NumOps]uint64
		for _, s := range cs.Sims {
			for op, c := range s.M.OpCounts() {
				ops[op] += c
			}
		}
		var all []oc
		for op := isa.Op(0); op < isa.NumOps; op++ {
			if ops[op] > 0 {
				all = append(all, oc{op, ops[op]})
			}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].count > all[j].count })
		if len(all) > 12 {
			all = all[:12]
		}
		for _, e := range all {
			fmt.Printf("    %-8v %10d (%4.1f%%)\n", e.op, e.count,
				100*float64(e.count)/float64(r.Instructions))
		}
	}

	writeObs(sink, *metricsOut, *eventsOut)
}

// replayNIC replays the NIC engines' streams (one per node) through
// private pairs of the NIC geometry, misses summed, as the experiments
// package does for its runs.
func replayNIC(recs []*trace.Recording, instrs uint64) *experiments.NICStats {
	r := &experiments.Run{}
	if err := experiments.ReplayClusterFanOutContext(context.Background(), r, recs, []cache.Config{experiments.NICGeom}, 1); err != nil {
		fail(err)
	}
	c := r.Caches[0]
	return &experiments.NICStats{
		Instructions: instrs, Config: experiments.NICGeom,
		IMisses: c.IMisses, DMisses: c.DMisses, Writebacks: c.Writebacks,
	}
}

// newSink returns the observability sink the output flags need (with a
// timeline only when one is written), or nil when none do.
func newSink(eventsOut, metricsOut string, hist bool) *obs.Sink {
	if eventsOut == "" && metricsOut == "" && !hist {
		return nil
	}
	if eventsOut != "" {
		return obs.New(obs.WithEvents())
	}
	return obs.New()
}

// printCaches prints one block per geometry: misses, writebacks and
// the cycle counts at the paper's three miss penalties.
func printCaches(r *experiments.Run, suffix string) {
	for i, c := range r.Caches {
		fmt.Printf("\n  cache %v%s\n", c.Config, suffix)
		fmt.Printf("  I-misses          %12d\n", c.IMisses)
		fmt.Printf("  D-misses          %12d\n", c.DMisses)
		fmt.Printf("  writebacks        %12d\n", c.Writebacks)
		for _, p := range []int{12, 24, 48} {
			fmt.Printf("  cycles (miss=%2d)  %12d\n", p, r.Cycles(i, p, false))
		}
	}
}

// writeObs writes the sink's metrics registry and timeline to the
// files the -metrics and -events flags name (empty = skip).
func writeObs(sink *obs.Sink, metricsOut, eventsOut string) {
	if metricsOut != "" {
		if err := writeFile(metricsOut, sink.Metrics.WriteJSON); err != nil {
			fail(err)
		}
		fmt.Printf("\nmetrics written to %s\n", metricsOut)
	}
	if eventsOut != "" {
		if err := writeFile(eventsOut, sink.Events.WriteJSON); err != nil {
			fail(err)
		}
		fmt.Printf("events written to %s (%d records; load in https://ui.perfetto.dev)\n",
			eventsOut, sink.Events.Len())
	}
}

// writeFile creates path and streams fn's output into it.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// indent prefixes every non-empty line of s.
func indent(s, prefix string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if l != "" {
			lines[i] = prefix + l
		}
	}
	return strings.Join(lines, "\n")
}

// geometries expands the comma-separated -cache/-assoc/-block lists into
// every combination, size-major.
func geometries(sizesKB, assocs, blocks string) ([]cache.Config, error) {
	parse := func(flagName, list string) ([]int, error) {
		var vs []int
		for _, f := range strings.Split(list, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("bad -%s value %q", flagName, f)
			}
			vs = append(vs, v)
		}
		return vs, nil
	}
	kbs, err := parse("cache", sizesKB)
	if err != nil {
		return nil, err
	}
	as, err := parse("assoc", assocs)
	if err != nil {
		return nil, err
	}
	bs, err := parse("block", blocks)
	if err != nil {
		return nil, err
	}
	var geoms []cache.Config
	for _, kb := range kbs {
		for _, a := range as {
			for _, b := range bs {
				g := cache.Config{SizeBytes: kb * 1024, BlockBytes: b, Assoc: a}
				if err := g.Validate(); err != nil {
					return nil, err
				}
				geoms = append(geoms, g)
			}
		}
	}
	return geoms, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tamsim:", err)
	os.Exit(1)
}
