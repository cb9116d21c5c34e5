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
	"jmtam/internal/word"
)

// ClusterSim is one ready-to-run simulation on any number of nodes: a
// program compiled by one backend (mesh-aware when Nodes > 1) and loaded
// as one Sim per node. On one node the machine runs its own loop over
// pooled memory. On a mesh the machines share the compiled code store
// and the frame/heap memory segments (each with private system data
// holding its hardware queues, runtime globals and LCV) and are driven
// in lockstep against the netsim mesh. The six benchmarks run on it
// unmodified: frame placement, remote I-structure access and
// inter-frame messages are routed by the compiled runtime code, not by
// the programs.
type ClusterSim struct {
	Impl  Impl
	Prog  *Program
	RT    *Runtime
	Nodes int

	// Sims holds the per-node state, index = node id: each node's
	// machine, reference consumers (attach Tracer/NICTracer before
	// Run) and granularity statistics.
	Sims []*Sim
	// C steps the nodes' machines and the mesh in lockstep; nil on one
	// node, which has no network.
	C *cluster.Cluster
	// Obs is the observability sink from Options, or nil.
	Obs *obs.Sink
	// Host provides untraced access for setup and verification.
	Host *Host

	ran bool
}

// NewCluster instantiates a simulation from the compiled artifact: one
// fresh machine per compiled node, runtime globals and descriptors
// materialized in every node's system data with the frame and heap bump
// allocators partitioned across nodes, the program's Setup run through
// the node-aware Host, and (for the AM backends) the scheduler booted
// on every node. Every node takes pooled memory. One node has no
// network; on a mesh every other node's memory is a view sharing node
// 0's frame and heap segments, and every machine's router is wired to
// the netsim mesh.
func (c *Compiled) NewCluster(prog *Program, opt Options) (cs *ClusterSim, err error) {
	defer func() {
		if r := recover(); r != nil {
			cs, err = nil, fmt.Errorf("core: building %s/%v: %v", prog.Name, c.Impl, r)
		}
	}()
	if err := c.bind(prog); err != nil {
		return nil, err
	}
	impl := c.Impl
	nodes := c.nodes
	frameShift, heapShift := partitionShifts(nodes)
	cfg := machine.Config{
		QueueCapWords:     opt.QueueCapWords,
		PairedQueueWrites: opt.PairedQueueWrites,
		MaxInstructions:   opt.MaxInstructions,
	}

	cs = &ClusterSim{Impl: impl, Prog: prog, RT: c.RT, Nodes: nodes, Obs: opt.Obs}
	ms := make([]*machine.Machine, nodes)
	heapBumps := make([]uint32, nodes)
	for k := range ms {
		// Pooled: a sweep builds one simulation per (workload, impl)
		// cell, and zeroing fresh 24 MB segments per cell dominated
		// the record phase. Close returns the memory.
		var m *mem.Memory
		if k == 0 {
			m = mem.GetDefault()
		} else {
			m = mem.GetView(ms[0].Mem)
		}
		ms[k] = machine.NewMachine(m, c.Code, cfg)

		// Initialize node k's runtime globals and materialize the
		// descriptors (untraced: the loader, not the simulated program,
		// performs these writes). The bump allocators start at the
		// node's partition chunk, and the round-robin placement cursor
		// is staggered so node k's first allocation request goes to
		// node k+1 (spreading work even when one node drives the
		// fan-out).
		m.Store(GFrameBump, word.Ptr(mem.FrameBase+uint32(k)<<frameShift))
		heapBumps[k] = mem.HeapBase + uint32(k)<<heapShift
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
	cs.Host = &Host{
		impl: impl, nodes: nodes, placement: c.placement,
		frameShift: frameShift, heapShift: heapShift,
		ms: ms, heapBump: heapBumps,
	}
	for k, m := range ms {
		cs.Sims = append(cs.Sims, &Sim{
			Impl: impl, Prog: prog, RT: c.RT, M: m,
			Gran: &stats.Granularity{Node: k},
			Obs:  opt.Obs,
			Host: cs.Host,
			cs:   cs,
		})
	}

	if nodes > 1 {
		netcfg := netsim.DefaultConfig(nodes)
		if opt.Net != nil {
			netcfg = *opt.Net
		}
		if netcfg.Width*netcfg.Height < nodes {
			return nil, fmt.Errorf("core: %d nodes exceed the %dx%d mesh",
				nodes, netcfg.Width, netcfg.Height)
		}
		if cs.C, err = cluster.New(ms, netcfg); err != nil {
			return nil, err
		}
		cs.C.Classify = c.RT.classify
		if impl.Caps().DirectAccess {
			cs.installAAService()
		}
	}

	// Attach the sink before Setup runs so boot-time message injections
	// are observed (their flow arrows start at ts 0).
	if cs.Obs != nil {
		if cs.C != nil {
			cs.C.SetSink(cs.Obs)
		} else {
			ms[0].SetSink(cs.Obs)
		}
		for k, s := range cs.Sims {
			s.Gran.Sink = cs.Obs
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
		// Backends with a background scheduler enter its loop at boot;
		// the others are driven entirely by messages.
		for _, m := range ms {
			m.Boot(c.RT.schedAddr)
		}
	}
	return cs, nil
}

// installAAService wires the Active-Access hook: remote I-structure
// reads and writes are serviced directly against the owning node's
// memory at message-delivery time — the memory footprint of the iread/
// iwrite handlers (traced into the owner's reference stream; a nil
// Tracer records nothing) without dispatching any handler
// instructions. Frame and heap allocation still run as ordinary
// handlers, and on one node the backend degenerates to plain AM (local
// operations never cross the network).
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
		if cs.Sims[m.Dst].M.Busy(machine.High) {
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
	mm := cs.Sims[k].M.Mem
	trc := cs.Sims[k].Tracer
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
	mm := cs.Sims[k].M.Mem
	trc := cs.Sims[k].Tracer
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

// BuildCluster compiles prog with the given backend for opt.Nodes nodes
// and prepares the simulation; Compile followed by NewCluster.
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

// Run executes the simulation to global quiescence and verifies the
// result.
func (cs *ClusterSim) Run() error {
	return cs.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation (see Sim.RunContext).
// One node runs the machine's own loop; a mesh runs the lockstep
// cluster loop, which executes the same reference stream on one node
// but costs more per instruction.
func (cs *ClusterSim) RunContext(ctx context.Context) error {
	if cs.ran {
		return fmt.Errorf("%s already ran", cs.where())
	}
	cs.ran = true
	for _, s := range cs.Sims {
		s.attach()
	}
	var err error
	if cs.C != nil {
		err = cs.C.RunContext(ctx, 0)
	} else {
		err = cs.Sims[0].M.RunContext(ctx)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", cs.where(), err)
	}
	for _, s := range cs.Sims {
		s.finish()
	}
	if cs.Obs != nil {
		// Machine-level totals, plus the network's on a mesh.
		if cs.C != nil {
			cs.C.FinishMetrics()
		} else {
			cs.Sims[0].M.FinishMetrics()
		}
	}
	if cs.Prog.Verify != nil {
		if err := cs.Prog.Verify(cs.Host); err != nil {
			return fmt.Errorf("%s verify: %w", cs.where(), err)
		}
	}
	return nil
}

// where names the simulation in errors: program, backend and, on a
// mesh, the node count.
func (cs *ClusterSim) where() string {
	if cs.C != nil {
		return fmt.Sprintf("core: %s/%s on %d nodes", cs.Prog.Name, cs.Impl, cs.Nodes)
	}
	return fmt.Sprintf("core: %s/%s", cs.Prog.Name, cs.Impl)
}

// Close releases every node's pooled memory, under the rules of
// Sim.Close. Nodes release in reverse order, so every view of node 0's
// memory folds its frame and heap watermarks into node 0's before that
// memory goes back to the pool.
func (cs *ClusterSim) Close() {
	for k := len(cs.Sims) - 1; k >= 0; k-- {
		m := cs.Sims[k].M
		m.Mem.Release()
		m.Mem = nil
	}
}

// Instructions returns the total instruction count across all nodes.
func (cs *ClusterSim) Instructions() uint64 {
	var n uint64
	for _, s := range cs.Sims {
		n += s.M.Instructions()
	}
	return n
}

// HighInstructions returns how many of those instructions executed at
// high priority, across all nodes: the NIC engines' share on backends
// with NIC-offloaded inlets.
func (cs *ClusterSim) HighInstructions() uint64 {
	var n uint64
	for _, s := range cs.Sims {
		n += s.M.HighInstructions()
	}
	return n
}

// Ticks returns the elapsed lockstep time. One node executes one
// instruction per tick and needs one more to observe quiescence, so its
// run takes instructions + 1 ticks — exactly what the lockstep cluster
// loop measures on one node.
func (cs *ClusterSim) Ticks() uint64 {
	if cs.C == nil {
		return cs.Instructions() + 1
	}
	return cs.C.Tick()
}

// MergedGran folds the per-node granularity statistics into one
// aggregate (quanta are per-node thread runs, so counts sum directly).
// The returned value carries no sink.
func (cs *ClusterSim) MergedGran() *stats.Granularity {
	t := &stats.Granularity{}
	for _, s := range cs.Sims {
		g := s.Gran
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
