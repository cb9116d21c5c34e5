package machine

import (
	"context"
	"errors"
	"fmt"

	"jmtam/internal/isa"
	"jmtam/internal/mem"
	"jmtam/internal/queue"
	"jmtam/internal/word"
)

// Priority levels.
const (
	Low  = 0
	High = 1
)

// Tracer receives one event per instruction fetch and per data access.
// Implementations must be cheap; the engine calls them on every
// instruction.
type Tracer interface {
	Fetch(addr uint32)
	Read(addr uint32)
	Write(addr uint32)
}

// Observer receives runtime-level events driven by instruction marks and
// dispatch, carrying the current frame pointer and the machine's dynamic
// instruction count so granularity statistics can be derived.
type Observer interface {
	ThreadStart(frame uint32, instrs uint64)
	InletStart(frame uint32, instrs uint64)
	Activate(frame uint32, instrs uint64)
	Dispatch(pri int, instrs uint64)
}

// nopTracer and nopObserver are used when no consumer is attached.
type nopTracer struct{}

func (nopTracer) Fetch(uint32) {}
func (nopTracer) Read(uint32)  {}
func (nopTracer) Write(uint32) {}

type nopObserver struct{}

func (nopObserver) ThreadStart(uint32, uint64) {}
func (nopObserver) InletStart(uint32, uint64)  {}
func (nopObserver) Activate(uint32, uint64)    {}
func (nopObserver) Dispatch(int, uint64)       {}

// Config controls machine construction.
type Config struct {
	// QueueCapWords is the per-priority message queue capacity in
	// words; zero selects queue.DefaultCapWords.
	QueueCapWords int
	// CountQueueWrites controls whether hardware buffering of arriving
	// message words is charged as data writes. The MDP buffers
	// messages into on-chip memory, consuming space and bandwidth
	// (paper §1.1.2 footnote), so the default — set by NewMachine — is
	// true.
	CountQueueWrites bool
	// PairedQueueWrites models the MDP's two-word-per-cycle queue
	// write-through: arriving message words are buffered in pairs, so
	// only every other word of a message charges a data write. Off by
	// default (one write per word, the historical accounting); only
	// meaningful when CountQueueWrites is set.
	PairedQueueWrites bool
	// MaxInstructions aborts runaway simulations; zero means no limit.
	MaxInstructions uint64
}

// Queue base addresses inside the system-data segment. The first words
// of system data are reserved for runtime globals (package core).
const (
	GlobalsWords  = 1 << 12 // 4K words of runtime globals
	queueLowBase  = mem.SysDataBase + GlobalsWords*mem.WordBytes
	queueAreaSize = queue.DefaultCapWords * mem.WordBytes
)

// Machine is one simulated node.
type Machine struct {
	Mem  *mem.Memory
	Code *CodeStore

	queues [2]*queue.Queue
	regs   [2][isa.NumRegs]word.Word
	ip     [2]uint32
	run    [2]bool
	intEn  bool

	sendPri  [2]int
	sendDest [2]int
	sendBuf  [2][]word.Word
	building [2]bool

	nodeID int
	router Router

	curMsg [2]queue.Msg
	inMsg  [2]bool

	tracer Tracer
	// nicTracer, when non-nil, receives the high-priority share of the
	// reference stream (NIC-offloaded inlet/handler execution); trc
	// caches the per-priority routing so step pays one index, not a
	// branch. The union of the two streams is exactly the single-tracer
	// stream.
	nicTracer Tracer
	trc       [2]Tracer
	observer  Observer
	probe     *probe

	cfg      Config
	instrs   uint64
	opCounts [isa.NumOps]uint64
	halted   bool
	// stalled marks a routed machine idling at WAIT: quiescent, but kept
	// alive so the cluster driver can wake it with a network delivery.
	stalled bool
	// qwSeq indexes words within the message currently being buffered,
	// for the paired (two-word-per-cycle) queue write-through model;
	// qwPri is the destination queue's priority, for trace attribution.
	qwSeq    int
	qwPri    int
	hiInstrs uint64
	trapErr  error
}

// NewMachine builds a machine around the given memory and code store.
func NewMachine(m *mem.Memory, code *CodeStore, cfg Config) *Machine {
	capw := cfg.QueueCapWords
	if capw == 0 {
		capw = queue.JMachineCapWords
	}
	if capw > queue.DefaultCapWords {
		capw = queue.DefaultCapWords // fixed storage layout bounds capacity
	}
	mach := &Machine{
		Mem:      m,
		Code:     code,
		tracer:   nopTracer{},
		observer: nopObserver{},
		cfg:      cfg,
		intEn:    true,
	}
	mach.queues[Low] = queue.New(queueLowBase, capw)
	mach.queues[High] = queue.New(queueLowBase+queueAreaSize, capw)
	mach.retrace()
	return mach
}

// SetTracer attaches t; nil restores the no-op tracer.
func (m *Machine) SetTracer(t Tracer) {
	if t == nil {
		t = nopTracer{}
	}
	m.tracer = t
	m.retrace()
}

// SetNICTracer splits the reference stream by execution locus: all
// high-priority activity (instruction fetch, message-queue buffering,
// dispatch header reads, handler data access) is reported to t instead
// of the main tracer, modelling inlets that run on a per-node NIC
// engine with its own caches. nil restores the single-stream default.
func (m *Machine) SetNICTracer(t Tracer) {
	m.nicTracer = t
	m.retrace()
}

// retrace recomputes the per-priority tracer routing.
func (m *Machine) retrace() {
	m.trc[Low] = m.tracer
	if m.nicTracer != nil {
		m.trc[High] = m.nicTracer
	} else {
		m.trc[High] = m.tracer
	}
}

// SetObserver attaches o; nil restores the no-op observer.
func (m *Machine) SetObserver(o Observer) {
	if o == nil {
		m.observer = nopObserver{}
		return
	}
	m.observer = o
}

// Queue returns the message queue at the given priority.
func (m *Machine) Queue(pri int) *queue.Queue { return m.queues[pri] }

// Instructions returns the number of instructions executed so far.
func (m *Machine) Instructions() uint64 { return m.instrs }

// HighInstructions returns how many of those executed at high priority
// (the NIC engine's share when a NIC tracer is attached).
func (m *Machine) HighInstructions() uint64 { return m.hiInstrs }

// OpCounts returns the dynamic execution count of every opcode.
func (m *Machine) OpCounts() [isa.NumOps]uint64 { return m.opCounts }

// Halted reports whether the machine has reached quiescence or trapped.
func (m *Machine) Halted() bool { return m.halted }

// Router forwards a message to another node; wired by the cluster
// driver. A nil router restricts the machine to local delivery.
type Router func(dst, pri int, ws []word.Word) error

// SetRouter assigns the machine's node id and its outbound network hook.
func (m *Machine) SetRouter(node int, r Router) {
	m.nodeID = node
	m.router = r
}

// Node returns the machine's node id (0 on a uniprocessor).
func (m *Machine) Node() int { return m.nodeID }

// Step executes at most one instruction, reporting whether progress
// was made; it does not treat an empty machine as halted, so a cluster
// driver can keep delivering network messages to it. A simulation fault
// panics: a driver stepping many machines recovers once around its loop
// and converts the panic value with Fault.
func (m *Machine) Step() (progress bool, err error) {
	if m.halted {
		return false, m.trapErr
	}
	if m.stalled {
		// Parked at WAIT; only a network delivery (Inject) wakes it.
		return false, nil
	}
	pri := m.choose()
	if pri < 0 {
		return false, nil
	}
	m.step(pri)
	if m.cfg.MaxInstructions != 0 && m.instrs >= m.cfg.MaxInstructions {
		m.halted = true
		return true, fmt.Errorf("%w: instruction limit %d exceeded", ErrTrap, m.cfg.MaxInstructions)
	}
	return true, m.trapErr
}

// Fault halts the machine after Step panicked with r and returns the
// trap error, naming the node, both instruction pointers and the
// instruction count.
func (m *Machine) Fault(r any) error {
	m.halted = true
	return fmt.Errorf("%w: %v (node %d, low ip=%#x high ip=%#x after %d instructions)",
		ErrTrap, r, m.nodeID, m.ip[Low], m.ip[High], m.instrs)
}

// Idle reports whether the machine has no runnable task and empty
// queues (it may still receive network messages).
func (m *Machine) Idle() bool { return m.quiescent() && !m.run[Low] }

// Busy reports whether the engine at pri is mid-task: a message has
// been dispatched (or a task resumed) and has not yet suspended.
func (m *Machine) Busy(pri int) bool { return m.run[pri] }

// Inject enqueues a message from the host (outside the simulation), used
// to bootstrap programs. Queue stores are traced like hardware buffering.
func (m *Machine) Inject(pri int, ws []word.Word) error {
	m.qwSeq = 0
	m.qwPri = pri
	msg, err := m.queues[pri].Enqueue(ws, m.queueStore)
	if err != nil {
		return err
	}
	m.stalled = false // a delivery wakes a machine parked at WAIT
	if m.probe != nil {
		m.probe.enqueue(m.nodeID, pri, msg, m.instrs, m.queues[pri].Len())
	}
	return nil
}

func (m *Machine) queueStore(addr uint32, w word.Word) {
	if m.cfg.CountQueueWrites {
		// Under the paired model the queue write-through retires two
		// message words per data write, so odd-indexed words ride along
		// with their predecessor.
		if !m.cfg.PairedQueueWrites || m.qwSeq%2 == 0 {
			m.trc[m.qwPri].Write(addr)
		}
		m.qwSeq++
	}
	m.Mem.Store(addr, w)
}

// reg reads a register, honouring the RZ pseudo-register.
func (m *Machine) reg(pri int, r uint8) word.Word {
	if r == isa.RZ {
		return word.Word{}
	}
	return m.regs[pri][r]
}

// SetReg writes a register directly (host bootstrap only).
func (m *Machine) SetReg(pri int, r uint8, w word.Word) { m.regs[pri][r] = w }

// ErrTrap wraps simulated runtime errors.
var ErrTrap = errors.New("machine trap")

// choose selects the priority level to execute next, dispatching a
// message if needed. It returns -1 when the machine is quiescent.
func (m *Machine) choose() int {
	if m.run[High] {
		return High
	}
	if m.queues[High].Len() > 0 && (!m.run[Low] || m.intEn) {
		m.dispatch(High)
		return High
	}
	if m.run[Low] {
		return Low
	}
	if m.queues[Low].Len() > 0 {
		m.dispatch(Low)
		return Low
	}
	return -1
}

// dispatch begins servicing the oldest message at pri. The hardware
// reads the handler address from the first message word (a traced read)
// and loads the message base register.
func (m *Machine) dispatch(pri int) {
	msg, ok := m.queues[pri].Front()
	if !ok {
		panic("machine: dispatch on empty queue")
	}
	m.trc[pri].Read(msg.Base)
	handler := m.Mem.Load(msg.Base)
	m.curMsg[pri] = msg
	m.inMsg[pri] = true
	m.run[pri] = true
	m.ip[pri] = handler.Addr()
	m.regs[pri][isa.RMsg] = word.Ptr(msg.Base)
	m.observer.Dispatch(pri, m.instrs)
	if m.probe != nil {
		m.probe.dispatch(m.nodeID, pri, msg, handler.Addr(), m.instrs)
	}
}

// suspend ends the current task at pri, consuming its message.
func (m *Machine) suspend(pri int) {
	m.run[pri] = false
	if m.inMsg[pri] {
		m.queues[pri].Consume()
		m.inMsg[pri] = false
	}
	if m.probe != nil {
		m.probe.suspend(m.nodeID, pri, m.instrs, m.queues[pri].Len())
	}
}

// quiescent reports whether nothing can make progress.
func (m *Machine) quiescent() bool {
	return !m.run[High] && m.queues[High].Len() == 0 && m.queues[Low].Len() == 0
}

// Run executes until quiescence, a HALT, a TRAP, or the instruction
// limit. Simulation faults (bad addresses, queue overflow) surface as
// errors rather than panics.
func (m *Machine) Run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v (at low ip=%#x high ip=%#x after %d instructions)",
				ErrTrap, r, m.ip[Low], m.ip[High], m.instrs)
		}
	}()
	for !m.halted {
		pri := m.choose()
		if pri < 0 {
			m.halted = true
			break
		}
		m.step(pri)
		if m.cfg.MaxInstructions != 0 && m.instrs >= m.cfg.MaxInstructions {
			return fmt.Errorf("%w: instruction limit %d exceeded", ErrTrap, m.cfg.MaxInstructions)
		}
	}
	return m.trapErr
}

// CancelCheckInterval is the cooperative-cancellation granularity of
// RunContext: the context is polled once every this many simulated
// instructions, so a cancelled simulation stops within one interval.
// The interval is large enough that the poll is invisible next to the
// per-instruction interpreter work, and small enough that even the
// longest benchmarks (hundreds of millions of instructions) die
// promptly.
const CancelCheckInterval = 1 << 14

// RunContext is Run with cooperative cancellation: the context is
// polled every CancelCheckInterval instructions, and cancellation halts
// the machine and returns an error wrapping ctx.Err(). A context that
// can never be cancelled delegates to Run and pays no per-instruction
// overhead.
func (m *Machine) RunContext(ctx context.Context) (err error) {
	done := ctx.Done()
	if done == nil {
		return m.Run()
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v (at low ip=%#x high ip=%#x after %d instructions)",
				ErrTrap, r, m.ip[Low], m.ip[High], m.instrs)
		}
	}()
	nextCheck := m.instrs + CancelCheckInterval
	for !m.halted {
		if m.instrs >= nextCheck {
			nextCheck = m.instrs + CancelCheckInterval
			select {
			case <-done:
				m.halted = true
				return fmt.Errorf("machine: run cancelled after %d instructions: %w",
					m.instrs, ctx.Err())
			default:
			}
		}
		pri := m.choose()
		if pri < 0 {
			m.halted = true
			break
		}
		m.step(pri)
		if m.cfg.MaxInstructions != 0 && m.instrs >= m.cfg.MaxInstructions {
			return fmt.Errorf("%w: instruction limit %d exceeded", ErrTrap, m.cfg.MaxInstructions)
		}
	}
	return m.trapErr
}

// Boot starts low-priority execution at addr with interrupts disabled,
// used by the Active Messages backend to enter its scheduler loop.
func (m *Machine) Boot(addr uint32) {
	m.ip[Low] = addr
	m.run[Low] = true
	m.intEn = false
}
