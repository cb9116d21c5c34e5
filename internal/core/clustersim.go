package core

import (
	"context"
	"fmt"

	"jmtam/internal/cluster"
	"jmtam/internal/machine"
	"jmtam/internal/mem"
	"jmtam/internal/netsim"
	"jmtam/internal/obs"
	"jmtam/internal/stats"
	"jmtam/internal/trace"
	"jmtam/internal/word"
)

// ClusterSim is one ready-to-run multi-node simulation: a program
// compiled mesh-aware by one backend, loaded on N machines that share
// the compiled code store and the frame/heap memory segments (each with
// private system data holding its hardware queues, runtime globals and
// LCV), driven in lockstep against the netsim mesh. The six benchmarks
// run on it unmodified: frame placement, remote I-structure access and
// inter-frame messages are routed by the compiled runtime code, not by
// the programs.
type ClusterSim struct {
	Impl  Impl
	Prog  *Program
	RT    *Runtime
	C     *cluster.Cluster
	Nodes int

	// Collectors count references per node and feed attached cache
	// pairs; index = node id.
	Collectors []*trace.Collector
	// Tracers, when non-nil, replace the Collectors as the machines'
	// reference consumers during Run (one per node, for the
	// record/replay engine).
	Tracers []machine.Tracer
	// NICTracers, when non-nil, receive each node's high-priority
	// reference share (NIC-offloaded inlet execution) instead of the
	// node's main tracer; only meaningful for backends with the
	// NICInlets capability.
	NICTracers []machine.Tracer
	// Grans accumulate per-node granularity statistics during Run.
	Grans []*stats.Granularity
	// Obs is the observability sink from Options, or nil.
	Obs *obs.Sink
	// Host provides untraced access for setup and verification.
	Host *Host

	// MaxTicks bounds RunContext (0 = no limit).
	MaxTicks uint64

	ran bool
}

// NewCluster instantiates a multi-node simulation from the compiled
// artifact: N fresh machines over shared frame/heap memory, runtime
// globals and descriptors materialized in every node's system data with
// the frame and heap bump allocators partitioned across nodes, the
// program's Setup run through the node-aware Host, and (for the AM
// backends) the scheduler booted on every node. Works for any compiled
// node count including 1, so an N=1 cluster can be compared
// byte-for-byte against the uniprocessor NewSim.
func (c *Compiled) NewCluster(prog *Program, opt Options) (cs *ClusterSim, err error) {
	defer func() {
		if r := recover(); r != nil {
			cs, err = nil, fmt.Errorf("core: building %s/%v cluster: %v", prog.Name, c.Impl, r)
		}
	}()
	if err := c.bind(prog); err != nil {
		return nil, err
	}
	impl := c.Impl
	nodes := c.nodes
	if nodes < 1 {
		nodes = 1
	}

	netcfg := netsim.DefaultConfig(nodes)
	if opt.Net != nil {
		netcfg = *opt.Net
	}
	if netcfg.Width*netcfg.Height < nodes {
		return nil, fmt.Errorf("core: %d nodes exceed the %dx%d mesh",
			nodes, netcfg.Width, netcfg.Height)
	}

	frameShift, heapShift := partitionShifts(nodes)
	frameChunk := uint32(1) << frameShift
	heapChunk := uint32(1) << heapShift

	cfg := machine.Config{
		QueueCapWords:     opt.QueueCapWords,
		CountQueueWrites:  !opt.NoQueueWriteTrace,
		PairedQueueWrites: opt.PairedQueueWrites,
		MaxInstructions:   opt.MaxInstructions,
	}

	base := mem.NewDefault()
	ms := make([]*machine.Machine, nodes)
	heapBumps := make([]uint32, nodes)
	for k := 0; k < nodes; k++ {
		m := base
		if k > 0 {
			m = mem.NewShared(base, mem.DefaultSysDataWords)
		}
		ms[k] = machine.NewMachine(m, c.Code, cfg)

		// Initialize node k's runtime globals: the bump allocators
		// start at the node's partition chunk, and the round-robin
		// placement cursor is staggered so node k's first allocation
		// request goes to node k+1 (spreading work even when one node
		// drives the fan-out).
		m.Store(GFrameBump, word.Ptr(mem.FrameBase+uint32(k)*frameChunk))
		heapBumps[k] = mem.HeapBase + uint32(k)*heapChunk
		m.Store(GHeapBump, word.Ptr(heapBumps[k]))
		m.Store(GNodeBump, word.Ptr(nodePoolBase))
		m.Store(GNodeFree, word.Int(0))
		m.Store(GReadyHead, word.Int(0))
		m.Store(GReadyTail, word.Int(0))
		m.Store(GLCVBase, word.Int(0)) // LCV bottom sentinel
		m.Store(GLCVTop, word.Ptr(GLCVBase+4))
		m.Store(GPlaceNext, word.Int(int64((k+1)%nodes)))
		for _, cb := range prog.Blocks {
			_, rcvOff := cb.layout(impl)
			m.Store(cb.descAddr+dFrameWords, word.Int(int64(cb.frameWords)))
			m.Store(cb.descAddr+dNumCounts, word.Int(int64(cb.NumCounts)))
			m.Store(cb.descAddr+dFreeHead, word.Int(0))
			m.Store(cb.descAddr+dRCVOff, word.Int(rcvOff))
			for i, cnt := range cb.InitCounts {
				m.Store(cb.descAddr+dCounts+uint32(4*i), word.Int(cnt))
			}
		}
	}

	cl, err := cluster.New(ms, netcfg)
	if err != nil {
		return nil, err
	}
	cl.Classify = c.RT.classify

	cs = &ClusterSim{
		Impl:       impl,
		Prog:       prog,
		RT:         c.RT,
		C:          cl,
		Nodes:      nodes,
		Collectors: make([]*trace.Collector, nodes),
		Grans:      make([]*stats.Granularity, nodes),
		Obs:        opt.Obs,
	}
	for k := 0; k < nodes; k++ {
		cs.Collectors[k] = &trace.Collector{}
		cs.Grans[k] = &stats.Granularity{Node: k}
	}
	cs.Host = &Host{
		impl: impl, nodes: nodes, placement: c.placement,
		frameShift: frameShift, heapShift: heapShift,
		ms: ms, heapBump: heapBumps,
	}

	// Attach the sink before Setup runs so boot-time message injections
	// are observed.
	if cs.Obs != nil {
		cl.SetSink(cs.Obs)
		for k := 0; k < nodes; k++ {
			cs.Grans[k].Sink = cs.Obs
			if cs.Obs.Events != nil {
				cs.Obs.Events.SetProcessName(int32(k),
					fmt.Sprintf("%s/%s node %d", prog.Name, impl, k))
			}
		}
	}

	if prog.Setup != nil {
		if err := prog.Setup(cs.Host); err != nil {
			return nil, fmt.Errorf("core: %s setup: %w", prog.Name, err)
		}
	}
	if impl.Caps().Scheduler == SchedBackground {
		for _, m := range ms {
			m.Boot(c.RT.schedAddr)
		}
	}
	if impl.Caps().DirectAccess {
		cs.installAAService()
	}
	return cs, nil
}

// nodeTracer returns the reference consumer attached to node k during
// Run: the explicit tracer when the record/replay engine supplied one,
// the node's collector otherwise.
func (cs *ClusterSim) nodeTracer(k int) machine.Tracer {
	if cs.Tracers != nil && cs.Tracers[k] != nil {
		return cs.Tracers[k]
	}
	return cs.Collectors[k]
}

// installAAService wires the Active-Access hook: remote I-structure
// reads and writes are serviced directly against the owning node's
// memory at message-delivery time — the memory footprint of the iread/
// iwrite handlers (traced into the owner's reference stream) without
// dispatching any handler instructions. Frame and heap allocation still
// run as ordinary handlers, and on one node the backend degenerates to
// plain AM (local operations never cross the network).
func (cs *ClusterSim) installAAService() {
	rt := cs.RT
	cs.C.Service = func(tick uint64, m *netsim.Message) (bool, error) {
		if len(m.Words) == 0 {
			return false, nil
		}
		switch m.Words[0].Addr() {
		case rt.ireadAddr, rt.iwriteAddr:
		default:
			return false, nil
		}
		// A locally issued request bypasses the network and dispatches
		// the handler on the owning node, whose read-modify-write of the
		// cell spans many ticks. Servicing a delivery directly while that
		// engine is mid-handler would interleave with it and lose
		// updates, so fall back to ordinary handler injection whenever
		// the node's high-priority engine is busy — both paths implement
		// the same I-structure transition, only atomicity matters.
		if cs.C.Machines[m.Dst].Busy(machine.High) {
			return false, nil
		}
		if m.Words[0].Addr() == rt.ireadAddr {
			return true, cs.aaRead(tick, m)
		}
		return true, cs.aaWrite(tick, m)
	}
}

// aaReply sends an I-structure reply [inlet, frame, value] at the
// requested priority to the node owning the continuation frame.
func (cs *ClusterSim) aaReply(tick uint64, src int, pri, inlet, frame, val word.Word) error {
	dst := int(frame.Addr()>>cs.RT.frameShift) & (cs.RT.nodes - 1)
	ws := []word.Word{inlet, frame, val}
	return cs.C.Net.Send(src, dst, int(pri.AsInt()), ws, tick)
}

// aaRead services an iread request [handler, heapAddr, replyPri,
// replyInlet, replyFrame] against node m.Dst's memory, mirroring
// emitIRead's data accesses: a present cell replies immediately, an
// empty or deferred cell chains the continuation onto the cell's
// deferred-reader list (nodes allocated from the owner's pool).
func (cs *ClusterSim) aaRead(tick uint64, m *netsim.Message) error {
	k := m.Dst
	mm := cs.C.Machines[k].Mem
	trc := cs.nodeTracer(k)
	addr := m.Words[1].Addr()
	trc.Read(addr)
	cell := mm.Load(addr)
	switch cell.Tag {
	case word.TagEmpty, word.TagDefer:
		link := word.Int(0)
		if cell.Tag == word.TagDefer {
			link = cell
			link.Tag = word.TagPtr
		}
		trc.Read(GNodeFree)
		free := mm.Load(GNodeFree)
		var node uint32
		if free.AsInt() != 0 {
			node = free.Addr()
			trc.Read(node + nNext)
			next := mm.Load(node + nNext)
			trc.Write(GNodeFree)
			mm.Store(GNodeFree, next)
		} else {
			trc.Read(GNodeBump)
			node = mm.Load(GNodeBump).Addr()
			trc.Write(GNodeBump)
			mm.Store(GNodeBump, word.Ptr(node+nodeBytes))
		}
		trc.Write(node + nNext)
		mm.Store(node+nNext, link)
		trc.Write(node + nPri)
		mm.Store(node+nPri, m.Words[2])
		trc.Write(node + nInlet)
		mm.Store(node+nInlet, m.Words[3])
		trc.Write(node + nFrame)
		mm.Store(node+nFrame, m.Words[4])
		head := word.Ptr(node)
		head.Tag = word.TagDefer
		trc.Write(addr)
		mm.Store(addr, head)
		return nil
	}
	return cs.aaReply(tick, k, m.Words[2], m.Words[3], m.Words[4], cell)
}

// aaWrite services an iwrite request [handler, heapAddr, value]:
// storing into an empty cell, draining the deferred-reader chain of a
// deferred cell (one reply per waiting continuation, nodes returned to
// the owner's free list), and failing on a double write exactly as the
// handler's trap would.
func (cs *ClusterSim) aaWrite(tick uint64, m *netsim.Message) error {
	k := m.Dst
	mm := cs.C.Machines[k].Mem
	trc := cs.nodeTracer(k)
	addr := m.Words[1].Addr()
	val := m.Words[2]
	trc.Read(addr)
	cell := mm.Load(addr)
	switch cell.Tag {
	case word.TagEmpty:
		trc.Write(addr)
		mm.Store(addr, val)
	case word.TagDefer:
		trc.Write(addr)
		mm.Store(addr, val)
		node := cell.Addr()
		for node != 0 {
			trc.Read(node + nPri)
			pri := mm.Load(node + nPri)
			trc.Read(node + nInlet)
			inlet := mm.Load(node + nInlet)
			trc.Read(node + nFrame)
			frame := mm.Load(node + nFrame)
			if err := cs.aaReply(tick, k, pri, inlet, frame, val); err != nil {
				return err
			}
			trc.Read(node + nNext)
			next := mm.Load(node + nNext)
			trc.Read(GNodeFree)
			free := mm.Load(GNodeFree)
			trc.Write(node + nNext)
			mm.Store(node+nNext, free)
			trc.Write(GNodeFree)
			mm.Store(GNodeFree, word.Ptr(node))
			if next.AsInt() == 0 {
				break
			}
			node = next.Addr()
		}
	default:
		return fmt.Errorf("core: %w: trap %d (aa double write at %#x on node %d)",
			machine.ErrTrap, TrapDoubleWrite, addr, k)
	}
	return nil
}

// BuildCluster compiles prog with the given backend for opt.Nodes mesh
// nodes and prepares a multi-node simulation; Compile followed by
// NewCluster.
func BuildCluster(impl Impl, prog *Program, opt Options) (*ClusterSim, error) {
	c, err := Compile(impl, prog, opt)
	if err != nil {
		return nil, err
	}
	return c.NewCluster(prog, opt)
}

// classify labels an inter-node message by its first payload word (the
// handler or inlet address), attributing mesh traffic to remote
// I-structure requests, frame allocation, or user-level inter-frame
// messages.
func (rt *Runtime) classify(pri int, ws []word.Word) string {
	if len(ws) == 0 {
		return "sys"
	}
	switch a := ws[0].Addr(); a {
	case rt.ireadAddr:
		return "ifetch"
	case rt.iwriteAddr:
		return "iwrite"
	case rt.fallocAddr:
		return "falloc"
	case rt.hallocAddr:
		return "halloc"
	case rt.releaseAddr:
		return "release"
	default:
		if a >= mem.UserCodeBase {
			return "user"
		}
		return "sys"
	}
}

// Run executes the cluster to global quiescence and verifies the result.
func (cs *ClusterSim) Run() error {
	return cs.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation (see Sim.RunContext).
func (cs *ClusterSim) RunContext(ctx context.Context) error {
	if cs.ran {
		return fmt.Errorf("core: %s/%s cluster already ran", cs.Prog.Name, cs.Impl)
	}
	cs.ran = true
	for k, m := range cs.C.Machines {
		if cs.Tracers != nil && cs.Tracers[k] != nil {
			m.SetTracer(cs.Tracers[k])
		} else {
			m.SetTracer(cs.Collectors[k])
		}
		if cs.NICTracers != nil && cs.NICTracers[k] != nil {
			m.SetNICTracer(cs.NICTracers[k])
		}
		m.SetObserver(cs.Grans[k])
	}
	if err := cs.C.RunContext(ctx, cs.MaxTicks); err != nil {
		return fmt.Errorf("core: %s/%s on %d nodes: %w", cs.Prog.Name, cs.Impl, cs.Nodes, err)
	}
	for k, m := range cs.C.Machines {
		cs.Grans[k].TotalInstrs = m.Instructions()
		cs.Grans[k].Finish()
	}
	if cs.Obs != nil {
		cs.finishMetrics()
	}
	if cs.Prog.Verify != nil {
		if err := cs.Prog.Verify(cs.Host); err != nil {
			return fmt.Errorf("core: %s/%s on %d nodes verify: %w",
				cs.Prog.Name, cs.Impl, cs.Nodes, err)
		}
	}
	return nil
}

// Instructions returns the total instruction count across all nodes.
func (cs *ClusterSim) Instructions() uint64 {
	var n uint64
	for _, m := range cs.C.Machines {
		n += m.Instructions()
	}
	return n
}

// Ticks returns the cluster's elapsed lockstep time.
func (cs *ClusterSim) Ticks() uint64 { return cs.C.Tick() }

// MergedGran folds the per-node granularity statistics into one
// aggregate (quanta are per-node thread runs, so counts sum directly).
// The returned value carries no sink.
func (cs *ClusterSim) MergedGran() *stats.Granularity {
	t := &stats.Granularity{}
	for _, g := range cs.Grans {
		t.Threads += g.Threads
		t.Inlets += g.Inlets
		t.Quanta += g.Quanta
		t.Activations += g.Activations
		t.Dispatches[0] += g.Dispatches[0]
		t.Dispatches[1] += g.Dispatches[1]
		t.TotalInstrs += g.TotalInstrs
		t.QuantumHist.Merge(&g.QuantumHist)
		t.QuantumInstrs.Merge(&g.QuantumInstrs)
	}
	return t
}

// finishMetrics folds the run's aggregate statistics into the sink's
// registry, summed across nodes; cluster.FinishMetrics adds the
// per-machine and network totals.
func (cs *ClusterSim) finishMetrics() {
	r := cs.Obs.Metrics
	for _, g := range cs.Grans {
		r.Counter("tam.threads").Add(g.Threads)
		r.Counter("tam.inlets").Add(g.Inlets)
		r.Counter("tam.quanta").Add(g.Quanta)
		r.Counter("tam.activations").Add(g.Activations)
		r.Counter("dispatch.low").Add(g.Dispatches[0])
		r.Counter("dispatch.high").Add(g.Dispatches[1])
		r.Histogram("quantum.threads").Merge(&g.QuantumHist)
		r.Histogram("quantum.instrs").Merge(&g.QuantumInstrs)
	}
	cs.C.FinishMetrics()
	if cs.Tracers == nil {
		for _, col := range cs.Collectors {
			col.Counts.AddTo(r, "")
		}
	}
}
