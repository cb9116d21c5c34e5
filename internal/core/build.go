package core

import (
	"context"
	"fmt"

	"jmtam/internal/isa"
	"jmtam/internal/machine"
	"jmtam/internal/mem"
	"jmtam/internal/netsim"
	"jmtam/internal/obs"
	"jmtam/internal/stats"
	"jmtam/internal/trace"
	"jmtam/internal/word"
)

// Options tunes simulation construction.
type Options struct {
	// QueueCapWords bounds the hardware message queues (0 = default).
	QueueCapWords int
	// MaxInstructions aborts runaway simulations (0 = no limit).
	MaxInstructions uint64
	// NoMDOptimize disables the §2.3 static optimizations in the MD
	// backend (keeping argument values in registers across a direct
	// post, placing threads immediately after their posting inlet, and
	// converting pops of a statically-empty LCV into suspends). Used
	// by the optimization ablation; the paper presents these as the
	// conventional optimizations the direct control transfer opens up.
	NoMDOptimize bool
	// Obs, when non-nil, attaches the observability sink: the machine,
	// scheduler statistics and (at the end of the run) aggregate
	// counters feed its metrics registry, and — if the sink carries an
	// event buffer — the run emits a Perfetto-loadable timeline.
	// Instrumentation is passive: results are identical with or without
	// it.
	Obs *obs.Sink
	// Nodes runs the program on an N-node mesh (0 or 1 = uniprocessor).
	// Must be a power of two. Multi-node compilation makes the system
	// handlers and message macros mesh-aware: allocation requests are
	// placed by the Placement policy, I-structure requests route to the
	// addressed cell's home node, and replies route to the continuation
	// frame's owner. Affects code generation, so it is fixed at Compile
	// time; run via Compiled.NewCluster (or the jmtam façade).
	Nodes int
	// Placement selects the frame/heap placement policy for multi-node
	// runs (default PlaceRoundRobin); ignored on a uniprocessor.
	Placement Placement
	// PairedQueueWrites models the MDP's two-word-per-cycle queue
	// write-through: arriving message words buffer in pairs, so only
	// every other word charges a data write. Off by default (the
	// historical one-write-per-word accounting).
	PairedQueueWrites bool
	// Net overrides the mesh geometry and latency model for multi-node
	// runs (nil = netsim.DefaultConfig for the node count).
	Net *netsim.Config
}

// Sim is one node of a simulation: a program compiled by one backend,
// loaded on a machine, with its reference sinks and granularity
// observer attached at Run time. A one-node simulation is a Sim on its
// own (see Build); a mesh is a ClusterSim holding one Sim per node.
type Sim struct {
	Impl Impl
	Prog *Program
	RT   *Runtime
	M    *machine.Machine

	// Tracer, when non-nil, records the node's reference stream and
	// its per-class counts during Run; replay it through cache pairs
	// afterwards. A nil Tracer records nothing.
	Tracer *trace.Recording
	// NICTracer, when non-nil on a backend with NIC-offloaded inlets
	// (Caps.NICInlets), records the high-priority share of the
	// reference stream — inlet and system-handler execution on the NIC
	// engine — while Tracer sees only compute-side references. The
	// union of the two streams is exactly the single-tracer stream, and
	// a drain attached to both (trace.Recording.Drain) receives it in
	// order, since the machine flushes the recording it leaves at every
	// switch.
	NICTracer *trace.Recording
	// Gran accumulates granularity statistics during Run.
	Gran *stats.Granularity
	// Obs is the observability sink from Options, or nil.
	Obs *obs.Sink
	// Host provides untraced access for setup and verification.
	Host *Host

	cs *ClusterSim // the simulation this node belongs to
}

// Build compiles prog with the given backend and prepares a simulation.
// Code-generation panics (macro misuse in program bodies) are converted
// into errors. Build is Compile followed by NewSim; callers that run
// the same (program, impl) repeatedly can cache the Compiled and skip
// code generation on later runs.
func Build(impl Impl, prog *Program, opt Options) (*Sim, error) {
	c, err := Compile(impl, prog, opt)
	if err != nil {
		return nil, err
	}
	return c.NewSim(prog, opt)
}

// emitCodeblock emits all inlets (with fall-through threads placed
// immediately after their posting inlet under MD) followed by the
// remaining threads and the shared suspend stub.
func (rt *Runtime) emitCodeblock(cb *Codeblock) {
	for _, in := range cb.inlets {
		b := rt.emitInlet(in)
		if t := b.fallthroughTo; t != nil && !t.emitted && rt.User.PC() == b.fallBRPC {
			// The branch to t was the inlet's last instruction: delete
			// it and lay the thread out adjacently (true fall-through).
			// If a label pins the branch, keep it — the thread is still
			// placed adjacently, so the branch is one wasted cycle.
			rt.User.PopLast()
			rt.emitThread(t)
		}
	}
	for _, t := range cb.threads {
		if !t.emitted {
			rt.emitThread(t)
		}
	}
	if cb.needSusp {
		rt.User.Label(cb.suspLabel)
		rt.User.Suspend()
	}
}

// emitInlet assembles one inlet: mark, frame-pointer load, body.
func (rt *Runtime) emitInlet(in *Inlet) *Body {
	s := rt.User
	in.addr = s.Label(in.Label())
	b := &Body{Segment: s, rt: rt, cb: in.cb, inlet: in}
	s.Mark(isa.MarkInletStart)
	s.LD(isa.RFP, isa.RMsg, 4)
	in.Body(b)
	if !b.terminated {
		panic(fmt.Sprintf("core: inlet %s does not terminate", in.Label()))
	}
	return b
}

// emitThread assembles one thread: mark, interrupt window, body.
func (rt *Runtime) emitThread(t *Thread) {
	s := rt.User
	t.emitted = true
	t.addr = s.Label(t.Label())
	b := &Body{Segment: s, rt: rt, cb: t.cb, thread: t}
	s.Mark(isa.MarkThreadStart)
	switch rt.Impl.Caps().Interrupts {
	case IntPulse:
		// Unenabled AM: interrupts are enabled only briefly at the top
		// of each thread (Figure 2a).
		s.EI()
		s.DI()
	case IntEnabled:
		// Enabled AM: interrupts stay on except around CV access.
		s.EI()
	}
	t.Body(b)
	if !b.terminated {
		panic(fmt.Sprintf("core: thread %s does not terminate", t.Label()))
	}
}

// Run executes the simulation to quiescence and verifies the result.
func (s *Sim) Run() error {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the machine polls
// the context every machine.CancelCheckInterval instructions, so a
// cancelled simulation — even a hung one making no scheduling progress
// — stops within one interval and returns an error wrapping ctx.Err().
// A context that can never be cancelled costs nothing. One node of a
// mesh cannot run alone (its machine would park at WAIT for network
// deliveries that never come); run its ClusterSim instead.
func (s *Sim) RunContext(ctx context.Context) error {
	if s.cs.C != nil {
		return fmt.Errorf("%s: node %d cannot run alone; run the ClusterSim", s.cs.where(), s.M.Node())
	}
	return s.cs.RunContext(ctx)
}

// Close releases the simulation's pooled resources — currently the
// machine's data memory, whose stored prefix is cleared and recycled
// for the next Sim. Call it only after extracting every statistic and
// verification result; the machine must not run or be inspected through
// Host afterwards. Close is optional (an unclosed Sim is merely garbage)
// and safe to call once on any Sim, including one whose Run failed. On
// a mesh it does nothing: the nodes share node 0's frame and heap
// segments, so only ClusterSim.Close returns their memory, all at once.
func (s *Sim) Close() {
	if s.cs.C == nil {
		s.cs.Close()
	}
}

// attach wires the node's reference sinks and observer into its
// machine before the run.
func (s *Sim) attach() {
	s.M.SetTracer(s.Tracer, s.NICTracer)
	s.M.SetObserver(s.Gran)
}

// finish closes the node's last quantum and folds its aggregate
// statistics into the sink's registry: scheduler counts and the quantum
// histograms. The reference counts are the recording owner's to fold
// (trace.Counts.AddTo). Nodes sharing a sink sum into one registry; the
// machine-level totals are flushed by ClusterSim.RunContext.
func (s *Sim) finish() {
	g := s.Gran
	g.TotalInstrs = s.M.Instructions()
	g.Finish()
	if s.Obs == nil {
		return
	}
	r := s.Obs.Metrics
	r.Counter("tam.threads").Add(g.Threads)
	r.Counter("tam.inlets").Add(g.Inlets)
	r.Counter("tam.quanta").Add(g.Quanta)
	r.Counter("tam.activations").Add(g.Activations)
	r.Counter("dispatch.low").Add(g.Dispatches[0])
	r.Counter("dispatch.high").Add(g.Dispatches[1])
	r.Histogram("quantum.threads").Merge(&g.QuantumHist)
	r.Histogram("quantum.instrs").Merge(&g.QuantumInstrs)
}

// Host gives programs untraced (loader/debugger) access to the simulated
// machine for setup and verification. On a multi-node cluster it spans
// every node: host data allocations follow the placement policy across
// the per-node heap partitions, the root frame lives in node 0's frame
// partition, and Start routes the boot message to the frame's owner.
// Peeks and result reads go through node 0, whose system data holds the
// result area (results are stored by the root activation, which node 0
// owns). With one node the behaviour is identical to the historical
// uniprocessor host.
type Host struct {
	impl       Impl
	nodes      int
	placement  Placement
	frameShift uint
	heapShift  uint
	ms         []*machine.Machine
	heapBump   []uint32 // per-node heap bump (host view)
	rr         int      // round-robin cursor for AllocData
}

// heapLimit returns the exclusive upper bound of node k's heap chunk.
func (h *Host) heapLimit(k int) uint32 {
	if h.nodes <= 1 {
		return mem.TopOfMemory
	}
	return mem.HeapBase + uint32(k+1)<<h.heapShift
}

// AllocData reserves words of heap and returns its base address. The
// memory is zero-initialized (integer zeros). On a cluster the chunk is
// carved from one node's heap partition, chosen by the placement policy
// (round-robin scatters successive host allocations across the mesh).
func (h *Host) AllocData(words int) uint32 {
	k := 0
	if h.nodes > 1 && h.placement == PlaceRoundRobin {
		k = h.rr
		h.rr = (h.rr + 1) % h.nodes
	}
	a := h.heapBump[k]
	end := a + uint32(words)*mem.WordBytes
	if end > h.heapLimit(k) {
		panic("core: heap exhausted")
	}
	h.heapBump[k] = end
	// Keep node k's dynamic allocator downstream of host data.
	h.ms[k].Mem.Store(GHeapBump, word.Ptr(end))
	return a
}

// AllocIStruct reserves words of heap initialized to the I-structure
// empty state.
func (h *Host) AllocIStruct(words int) uint32 {
	a := h.AllocData(words)
	for i := 0; i < words; i++ {
		h.ms[0].Mem.Store(a+uint32(4*i), word.Empty())
	}
	return a
}

// Poke writes a word of simulated memory without tracing. On a cluster
// the write goes through node 0 (the frame and heap segments are shared;
// system data addressed this way is node 0's).
func (h *Host) Poke(addr uint32, w word.Word) { h.ms[0].Mem.Store(addr, w) }

// PokeInt writes an integer word.
func (h *Host) PokeInt(addr uint32, v int64) { h.Poke(addr, word.Int(v)) }

// PokeFloat writes a float word.
func (h *Host) PokeFloat(addr uint32, v float64) { h.Poke(addr, word.Float(v)) }

// Peek reads a word of simulated memory without tracing (node 0's view).
func (h *Host) Peek(addr uint32) word.Word { return h.ms[0].Mem.Load(addr) }

// Result returns word i of the program result area.
func (h *Host) Result(i int) word.Word {
	return h.Peek(GResultBase + uint32(4*i))
}

// AllocFrame allocates and initializes a frame for cb exactly as the
// frame-allocation handler would, but untraced; used to create the root
// activation. On a cluster the frame comes from node 0's partition.
func (h *Host) AllocFrame(cb *Codeblock) uint32 {
	m := h.ms[0].Mem
	f := m.Load(GFrameBump).Addr()
	nb := f + uint32(cb.frameWords)*mem.WordBytes
	if h.nodes > 1 && nb > mem.FrameBase+uint32(1)<<h.frameShift {
		panic("core: root frame overflows node 0's frame partition")
	}
	m.Store(GFrameBump, word.Ptr(nb))
	m.Store(f+fhDesc, word.Ptr(cb.descAddr))
	if h.impl.Caps().RCV {
		_, rcvOff := cb.layout(h.impl)
		m.Store(f+uint32(rcvOff), word.Int(0)) // bottom sentinel
		m.Store(f+fhRCVTail, word.Ptr(f+uint32(rcvOff)+4))
		m.Store(f+fhFlags, word.Int(0))
	}
	for i, c := range cb.InitCounts {
		m.Store(f+uint32(h.impl.headerWords()*4+4*i), word.Int(c))
	}
	return f
}

// Start injects a message invoking the given inlet of the activation at
// frame, with the given arguments, at the backend's inlet priority. On
// a cluster the message is injected on the node owning the frame.
func (h *Host) Start(in *Inlet, frame uint32, args ...word.Word) error {
	if in.addr == 0 {
		return fmt.Errorf("core: inlet %s has no address (not emitted?)", in.Label())
	}
	ws := make([]word.Word, 0, 2+len(args))
	ws = append(ws, word.Ptr(in.addr), word.Ptr(frame))
	ws = append(ws, args...)
	node := 0
	if h.nodes > 1 {
		node = int((frame >> h.frameShift) & uint32(h.nodes-1))
	}
	return h.ms[node].Inject(int(h.impl.inletPri()), ws)
}
