// Command tamsim runs one benchmark under one TAM implementation and
// reports instruction counts, granularity and cache behaviour:
//
//	tamsim -prog ss -arg 100 -impl md
//	tamsim -prog mmt -arg 20 -impl am -cache 8 -assoc 4 -block 64
//	tamsim -prog qs -impl md -cache 1,8,64 -assoc 1,4
//	tamsim -prog qs -impl am -dump
//	tamsim -prog wavefront -impl am -nodes 4 -placement round-robin
//
// -cache, -assoc and -block accept comma-separated lists; every
// combination is evaluated. The simulation runs once, and its reference
// stream replays through every geometry while it records, a chunk at a
// time, so no whole trace is held.
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is tamsim on the given arguments and output streams; it returns
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tamsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	prog := fs.String("prog", "ss", "benchmark: mmt|qs|dtw|paraffins|wavefront|ss")
	arg := fs.Int("arg", 0, "problem size (0 = paper argument)")
	implName := fs.String("impl", "md", "backend: "+strings.Join(core.BackendNames(), "|"))
	sizesKB := fs.String("cache", "8", "cache size(s) in Kbytes (I and D), comma-separated")
	assocs := fs.String("assoc", "4", "set associativity list, comma-separated")
	blocks := fs.String("block", "64", "block size(s) in bytes, comma-separated")
	dump := fs.Bool("dump", false, "print disassembly instead of running")
	hist := fs.Bool("hist", false, "also print the quantum-size histogram and instruction mix")
	eventsOut := fs.String("events", "", "write a Perfetto/Chrome trace-event timeline (JSON) to this file")
	metricsOut := fs.String("metrics", "", "write the observability metrics registry (JSON) to this file")
	nodes := fs.Int("nodes", 1, "mesh node count (power of two, at most 64); >1 runs the multi-node TAM runtime")
	placementName := fs.String("placement", "round-robin", "frame placement policy for -nodes > 1: round-robin|local")
	pairedQW := fs.Bool("paired-queue-writes", false, "model the MDP's two-word-per-cycle queue write-through (halves charged queue-buffer writes)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tamsim:", err)
		return 1
	}

	impl, err := core.ParseImpl(*implName)
	if err != nil {
		return fail(err)
	}

	placement, err := core.ParsePlacement(*placementName)
	if err != nil {
		return fail(err)
	}

	spec, err := programs.ByName(*prog)
	if err != nil {
		return fail(err)
	}
	n := *arg
	if n == 0 {
		n = spec.Arg
	}

	if *dump {
		c, err := core.Compile(impl, spec.Build(n),
			core.Options{Nodes: *nodes, Placement: placement})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "; --- system code ---")
		fmt.Fprint(stdout, c.RT.Sys.Dump())
		fmt.Fprintln(stdout, "; --- user code ---")
		fmt.Fprint(stdout, c.RT.User.Dump())
		return 0
	}

	geoms, err := geometries(*sizesKB, *assocs, *blocks)
	if err != nil {
		return fail(err)
	}

	sink := newSink(*eventsOut, *metricsOut, *hist)
	opt := core.Options{Nodes: *nodes, Placement: placement, PairedQueueWrites: *pairedQW, Obs: sink}
	cs, err := core.BuildCluster(impl, spec.Build(n), opt)
	if err != nil {
		return fail(err)
	}
	// Per-node miss-density counter tracks for the timeline: I/D miss
	// samples every 1000 fetches of each node's compute stream at the
	// first geometry, on the same instruction clock as the scheduler
	// spans, so conflict-miss bursts line up with the quanta they occur
	// in; a NIC stream gets its own labelled tracks at the NIC geometry.
	var tracks [2][]*density // compute, NIC; one per node
	var extra func(k int, nic bool, refs []uint32)
	if sink != nil && sink.Events != nil {
		streams := []cache.Config{geoms[0]}
		if impl.Caps().NICInlets {
			streams = append(streams, experiments.NICGeom)
		}
		for k := 0; k < cs.Nodes; k++ {
			for i, g := range streams {
				d, err := newDensity(g)
				if err != nil {
					return fail(err)
				}
				tracks[i] = append(tracks[i], d)
			}
		}
		extra = func(k int, nic bool, refs []uint32) {
			i := 0
			if nic {
				i = 1
			}
			tracks[i][k].rp.Feed(refs)
		}
	}
	// Each node replays its stream through a private pair per geometry
	// as it records. NIC-offload backends split it by execution locus:
	// inlets and system handlers replay against the node's NIC pair,
	// and the cycle lines take the slower engine. A sink also gets the
	// misses attributed by cause and class, under each geometry's label.
	r, err := experiments.Simulate(context.Background(), cs, geoms, true, extra)
	if err != nil {
		return fail(err)
	}
	for i, label := range []string{"", "nic."} {
		for k, d := range tracks[i] {
			d.emit(sink.Events, int32(k), label)
		}
	}
	counts, nic := r.Counts, r.NIC
	// A recording that kept its stream would take one 256 KB chunk per
	// 64K references begun, on every node.
	var traceBytes uint64
	for _, s := range cs.Sims {
		traceBytes += (refCount(&s.Tracer.Counts) + 1<<16 - 1) >> 16 << 18
	}

	// A mesh adds its placement, per-node, tick and network lines.
	mesh := cs.C != nil
	g := cs.MergedGran()
	if mesh {
		fmt.Fprintf(stdout, "%s %d under %v on %d nodes (%v placement)\n", spec.Name, n, impl, cs.Nodes, placement)
	} else {
		fmt.Fprintf(stdout, "%s %d under %v\n", spec.Name, n, impl)
	}
	fmt.Fprintf(stdout, "  %s\n\n", spec.Doc)
	fmt.Fprintf(stdout, "  instructions      %12d\n", r.Instructions)
	if mesh {
		for k, s := range cs.Sims {
			fmt.Fprintf(stdout, "    node %-2d         %12d\n", k, s.M.Instructions())
		}
		fmt.Fprintf(stdout, "  elapsed ticks     %12d\n", cs.Ticks())
	}
	fmt.Fprintf(stdout, "  data reads        %12d\n", counts.TotalReads())
	fmt.Fprintf(stdout, "  data writes       %12d\n", counts.TotalWrites())
	fmt.Fprintf(stdout, "  threads           %12d\n", g.Threads)
	fmt.Fprintf(stdout, "  quanta            %12d\n", g.Quanta)
	fmt.Fprintf(stdout, "  threads/quantum   %12.1f\n", g.TPQ())
	fmt.Fprintf(stdout, "  instrs/thread     %12.1f\n", g.IPT())
	fmt.Fprintf(stdout, "  instrs/quantum    %12.1f\n", g.IPQ())
	fmt.Fprintf(stdout, "  trace             %12d refs (%d KB recorded)\n", refCount(&counts), traceBytes/1024)
	suffix, nicHead := "", fmt.Sprintf("nic engine (private cache %v)", experiments.NICGeom)
	if mesh {
		fmt.Fprintf(stdout, "  net messages      %12d delivered (%d words sent)\n",
			cs.C.Net.Delivered, cs.C.Net.WordsSent)
		if sink != nil {
			for _, name := range sink.Metrics.CounterNames() {
				if strings.HasPrefix(name, "net.class.") || strings.HasPrefix(name, "net.latency.") {
					fmt.Fprintf(stdout, "    %-16s%12d\n", strings.TrimPrefix(name, "net."),
						sink.Metrics.Counter(name).Value())
				}
			}
		}
		suffix, nicHead = " (per node)", fmt.Sprintf("nic engines (private cache %v per node)", experiments.NICGeom)
	}
	printCaches(stdout, r, suffix)
	if nic != nil {
		fmt.Fprintf(stdout, "\n  %s\n", nicHead)
		fmt.Fprintf(stdout, "  instructions      %12d\n", nic.Instructions)
		fmt.Fprintf(stdout, "  trace             %12d refs\n", refCount(&nic.Counts))
		fmt.Fprintf(stdout, "  I-misses          %12d\n", nic.IMisses)
		fmt.Fprintf(stdout, "  D-misses          %12d\n", nic.DMisses)
		fmt.Fprintf(stdout, "  writebacks        %12d\n", nic.Writebacks)
	}

	if *hist {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, indent(report.Histogram(
			"quantum-size histogram (threads per quantum)", &g.QuantumHist), "  "))
		fmt.Fprint(stdout, indent(report.Histogram(
			"quantum-length histogram (instructions per quantum)", &g.QuantumInstrs), "  "))
		fmt.Fprintf(stdout, "    largest quantum: %d threads\n", g.MaxQuantum())
		fmt.Fprintln(stdout, "\n  dynamic opcode counts (top 12)")
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
			fmt.Fprintf(stdout, "    %-8v %10d (%4.1f%%)\n", e.op, e.count,
				100*float64(e.count)/float64(r.Instructions))
		}
	}

	if err := writeObs(stdout, sink, *metricsOut, *eventsOut); err != nil {
		return fail(err)
	}
	return 0
}

// refCount returns the number of references counted in c.
func refCount(c *trace.Counts) uint64 { return c.TotalFetches() + c.TotalReads() + c.TotalWrites() }

// density replays one stream through a pair of one geometry as it is
// fed, sampling its misses every 1000 fetches (trace.Hooks.Sample), and
// keeps the samples for a miss-density track.
type density struct {
	rp      *trace.Replayer
	samples [][3]uint64 // fetches so far, I-misses and D-misses since the last sample
}

func newDensity(g cache.Config) (*density, error) {
	p, err := trace.NewPair(g)
	if err != nil {
		return nil, err
	}
	d := &density{}
	d.rp, err = trace.NewReplayer([]trace.Pair{p}, &trace.Hooks{SampleEvery: 1000,
		Sample: func(_ int, fetches, iMisses, dMisses uint64) {
			d.samples = append(d.samples, [3]uint64{fetches, iMisses, dMisses})
		}})
	return d, err
}

// emit ends the stream and writes its samples onto b's pid timeline as
// the I- and D-miss density counter tracks, their names prefixed by
// label.
func (d *density) emit(b *obs.EventBuffer, pid int32, label string) {
	d.rp.Close()
	for _, s := range d.samples {
		b.Counter(label+"I-miss density", "miss-density", pid, s[0], "misses", s[1])
		b.Counter(label+"D-miss density", "miss-density", pid, s[0], "misses", s[2])
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
func printCaches(w io.Writer, r *experiments.Run, suffix string) {
	for i, c := range r.Caches {
		fmt.Fprintf(w, "\n  cache %v%s\n", c.Config, suffix)
		fmt.Fprintf(w, "  I-misses          %12d\n", c.IMisses)
		fmt.Fprintf(w, "  D-misses          %12d\n", c.DMisses)
		fmt.Fprintf(w, "  writebacks        %12d\n", c.Writebacks)
		for _, p := range []int{12, 24, 48} {
			fmt.Fprintf(w, "  cycles (miss=%2d)  %12d\n", p, r.Cycles(i, p, false))
		}
	}
}

// writeObs writes the sink's metrics registry and timeline to the
// files the -metrics and -events flags name (empty = skip), and says so
// on w.
func writeObs(w io.Writer, sink *obs.Sink, metricsOut, eventsOut string) error {
	if metricsOut != "" {
		if err := writeFile(metricsOut, sink.Metrics.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nmetrics written to %s\n", metricsOut)
	}
	if eventsOut != "" {
		if err := writeFile(eventsOut, sink.Events.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "events written to %s (%d records; load in https://ui.perfetto.dev)\n",
			eventsOut, sink.Events.Len())
	}
	return nil
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
