package core

import (
	"fmt"

	"jmtam/internal/machine"
	"jmtam/internal/mem"
)

// Compiled is the reusable product of one backend compilation: the
// runtime (system and user code segments plus system-routine addresses)
// and a snapshot of the layout assigned to the source program's
// codeblocks. A Compiled is immutable after Compile, so a serving
// daemon can cache one per (program, size, impl) and instantiate any
// number of concurrent simulations from it via NewSim or NewCluster —
// repeat jobs skip code generation entirely. Each instantiation must be
// given its own *Program instance (programs carry per-run Setup/Verify
// closure state), which it binds to the compiled layout.
type Compiled struct {
	Impl Impl
	RT   *Runtime
	Code *machine.CodeStore

	progName  string
	blocks    []compiledBlock
	noMDOpt   bool
	nodes     int
	placement Placement
}

// Nodes returns the node count the artifact was compiled for (1 for
// uniprocessor code).
func (c *Compiled) Nodes() int { return c.nodes }

// compiledBlock snapshots the layout and code addresses assigned to one
// codeblock during compilation, keyed for rebinding by structural
// position.
type compiledBlock struct {
	name        string
	frameWords  int
	descAddr    uint32
	inletAddrs  []uint32
	threadAddrs []uint32
}

// Compile runs code generation for prog under the given backend and
// returns the immutable compilation artifact. Only Options fields that
// affect code generation (NoMDOptimize, Nodes, Placement) are consulted.
// Code-generation panics (macro misuse in program bodies) are converted
// into errors.
func Compile(impl Impl, prog *Program, opt Options) (c *Compiled, err error) {
	defer func() {
		if r := recover(); r != nil {
			c, err = nil, fmt.Errorf("core: building %s/%v: %v", prog.Name, impl, r)
		}
	}()
	if err := prog.validate(); err != nil {
		return nil, err
	}
	nodes := opt.Nodes
	if nodes < 1 {
		nodes = 1
	}
	if nodes&(nodes-1) != 0 || nodes > 64 {
		return nil, fmt.Errorf("core: %d nodes: node count must be a power of two, at most 64", nodes)
	}
	rt := newRuntime(impl, nodes, opt.Placement)
	rt.mdOpt = !opt.NoMDOptimize

	// Lay out every descriptor before emitting code: FAlloc sites need
	// target descriptor addresses.
	addr := uint32(descAreaBase)
	for _, cb := range prog.Blocks {
		fw, rcvOff := cb.layout(impl)
		cb.frameWords = fw
		_ = rcvOff
		cb.descAddr = addr
		addr += uint32(4+cb.NumCounts) * mem.WordBytes
		if addr > descAreaEnd {
			return nil, fmt.Errorf("core: descriptor area overflow in %s", prog.Name)
		}
		// Reset per-build codegen state (a Program may be compiled by
		// several backends in one process).
		cb.needSusp = false
		cb.suspLabel = cb.Name + ".$susp"
		for _, t := range cb.threads {
			t.emitted = false
			t.entryLCVEmpty = false
			t.postCount = 0
			t.addr = 0
		}
		for _, in := range cb.inlets {
			in.addr = 0
		}
	}

	for _, cb := range prog.Blocks {
		rt.emitCodeblock(cb)
	}
	if err := rt.User.Finish(); err != nil {
		return nil, err
	}

	c = &Compiled{
		Impl:      impl,
		RT:        rt,
		Code:      machine.NewCodeStore(rt.Sys.Code(), rt.User.Code()),
		progName:  prog.Name,
		noMDOpt:   opt.NoMDOptimize,
		nodes:     nodes,
		placement: opt.Placement,
	}
	for _, cb := range prog.Blocks {
		b := compiledBlock{
			name:       cb.Name,
			frameWords: cb.frameWords,
			descAddr:   cb.descAddr,
		}
		for _, in := range cb.inlets {
			b.inletAddrs = append(b.inletAddrs, in.addr)
		}
		for _, t := range cb.threads {
			b.threadAddrs = append(b.threadAddrs, t.addr)
		}
		c.blocks = append(c.blocks, b)
	}
	return c, nil
}

// bind copies the compiled layout onto prog, which must be structurally
// identical to the program the artifact was compiled from (same
// codeblock, inlet and thread sequence — true for any program produced
// by the same deterministic builder at the same argument). After
// binding, the program's inlet addresses and frame layouts are valid
// for Host.Start and Host.AllocFrame against the compiled code.
func (c *Compiled) bind(prog *Program) error {
	if prog.Name != c.progName {
		return fmt.Errorf("core: compiled %s cannot bind program %s", c.progName, prog.Name)
	}
	if len(prog.Blocks) != len(c.blocks) {
		return fmt.Errorf("core: compiled %s: %d codeblocks, program has %d",
			c.progName, len(c.blocks), len(prog.Blocks))
	}
	for i, cb := range prog.Blocks {
		b := &c.blocks[i]
		if cb.Name != b.name || len(cb.inlets) != len(b.inletAddrs) ||
			len(cb.threads) != len(b.threadAddrs) {
			return fmt.Errorf("core: compiled %s: codeblock %d shape mismatch (%s vs %s)",
				c.progName, i, b.name, cb.Name)
		}
		cb.frameWords = b.frameWords
		cb.descAddr = b.descAddr
		for j, in := range cb.inlets {
			in.addr = b.inletAddrs[j]
		}
		for j, t := range cb.threads {
			t.addr = b.threadAddrs[j]
			t.emitted = true
		}
	}
	return nil
}

// NewSim instantiates one ready-to-run simulation from an artifact
// compiled for one node: the single node of a one-node NewCluster.
// Options fields affecting code generation are ignored here — they were
// fixed at Compile time. Concurrent NewSim calls on one Compiled are
// safe as long as each receives its own *Program instance.
func (c *Compiled) NewSim(prog *Program, opt Options) (*Sim, error) {
	if c.nodes > 1 {
		return nil, fmt.Errorf("core: %s/%v compiled for %d nodes; use NewCluster",
			prog.Name, c.Impl, c.nodes)
	}
	cs, err := c.NewCluster(prog, opt)
	if err != nil {
		return nil, err
	}
	return cs.Sims[0], nil
}
