package machine

import (
	"context"
	"errors"
	"fmt"
	"math"

	"jmtam/internal/isa"
	"jmtam/internal/mem"
	"jmtam/internal/queue"
	"jmtam/internal/stats"
	"jmtam/internal/trace"
	"jmtam/internal/word"
)

// Priority levels.
const (
	Low  = 0
	High = 1
)

// Config controls machine construction.
type Config struct {
	// QueueCapWords is the per-priority message queue capacity in
	// words; zero selects queue.DefaultCapWords.
	QueueCapWords int
	// PairedQueueWrites models the MDP's two-word-per-cycle queue
	// write-through: arriving message words are buffered in pairs, so
	// only every other word of a message charges a data write. Off by
	// default (one write per word, the historical accounting).
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
	// regs holds r0-r7 and rz at index RZ. Nothing writes rz's slot or
	// the unused ones between, since asm.Segment.Finish refuses any
	// instruction that writes rz or names another register, so rz
	// reads integer zero with no test.
	regs  [2][isa.RZ + 1]word.Word
	ip    [2]uint32
	run   [2]bool
	intEn bool

	sendPri  [2]int
	sendDest [2]int
	sendBuf  [2][]word.Word
	building [2]bool

	nodeID int
	router Router

	curMsg [2]queue.Msg
	inMsg  [2]bool

	// rec holds the reference sink per priority (see SetTracer), a nil
	// entry recording nothing; gran takes the thread, inlet and
	// activation marks and the dispatches (see SetObserver).
	rec   [2]*trace.Recording
	gran  *stats.Granularity
	probe *probe

	cfg Config
	// limit is MaxInstructions, or the largest count when unlimited, so
	// one compare per instruction bounds both it and the cancellation
	// poll (see RunContext).
	limit    uint64
	instrs   uint64
	opCounts [isa.NumOps]uint64
	halted   bool
	// stalled marks a routed machine idling at WAIT: quiescent, but kept
	// alive so the cluster driver can wake it with a network delivery.
	stalled  bool
	hiInstrs uint64
	trapErr  error

	// sink is the recording the last reference went to (see switchTo).
	sink *trace.Recording
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
		Mem:   m,
		Code:  code,
		gran:  &stats.Granularity{},
		cfg:   cfg,
		limit: cfg.MaxInstructions,
		intEn: true,
	}
	if mach.limit == 0 {
		mach.limit = math.MaxUint64
	}
	mach.queues[Low] = queue.New(queueLowBase, capw)
	mach.queues[High] = queue.New(queueLowBase+queueAreaSize, capw)
	return mach
}

// SetTracer attaches the reference sinks: every instruction fetch and
// data access records into rec, or nowhere when rec is nil. A non-nil
// nic splits the stream by execution locus: all high-priority activity
// (instruction fetch, message-queue buffering, dispatch header reads,
// handler data access) records into nic instead, modelling inlets that
// run on a per-node NIC engine with its own caches. The union of the
// two streams is exactly the single-sink stream.
func (m *Machine) SetTracer(rec, nic *trace.Recording) {
	m.rec = [2]*trace.Recording{rec, rec}
	if nic != nil {
		m.rec[High] = nic
	}
	m.sink = rec
}

// switchTo moves the sink to rec and flushes the recording it leaves
// (trace.Recording.Flush), so that a drain attached to both of the
// recordings SetTracer attached sees their references in execution
// order: the one stream a single recording would have held. The sink
// can change only where a stretch makes its priority decision, where
// dispatch reads a message and where Inject buffers one, and every
// append the machine makes follows one of these, so only the sink
// being appended to can seal a chunk. The Active Access service
// records from outside the machine, into the compute recording, but
// that backend never has a NIC recording. Only a machine with a NIC
// recording ever switches, so the compare that guards each call is
// predictable everywhere else. It stays out of line, so that the guard
// is all the interpreter holds.
//
//go:noinline
func (m *Machine) switchTo(rec *trace.Recording) {
	m.sink.Flush()
	m.sink = rec
}

// SetObserver attaches the granularity statistics the run feeds; nil
// attaches a fresh one that nothing reads.
func (m *Machine) SetObserver(g *stats.Granularity) {
	if g == nil {
		g = &stats.Granularity{}
	}
	m.gran = g
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

// Step executes at most one instruction, a stretch of one, reporting
// whether progress was made; it does not treat an empty machine as
// halted, so a cluster driver can keep delivering network messages to
// it. A simulation fault panics: a driver stepping many machines
// recovers once around its loop and converts the panic value with
// Fault.
func (m *Machine) Step() (progress bool, err error) {
	if m.halted {
		return false, m.trapErr
	}
	if !m.step(m.instrs + 1) {
		return false, nil
	}
	if m.instrs >= m.limit {
		return true, m.overLimit()
	}
	return true, m.trapErr
}

// overLimit halts the machine once it has executed MaxInstructions
// instructions, even if the last of them halted it, and returns the
// limit error.
func (m *Machine) overLimit() error {
	m.halted = true
	return fmt.Errorf("%w: instruction limit %d exceeded", ErrTrap, m.cfg.MaxInstructions)
}

// Fault halts the machine after a step panicked with r and returns the
// trap error, naming the node, both instruction pointers and the
// instruction count. An error panic value stays matchable: a queue
// overflow satisfies errors.Is(err, queue.ErrOverflow).
func (m *Machine) Fault(r any) error {
	m.halted = true
	cause, ok := r.(error)
	if !ok {
		cause = fmt.Errorf("%v", r)
	}
	return fmt.Errorf("%w: %w (node %d, low ip=%#x high ip=%#x after %d instructions)",
		ErrTrap, cause, m.nodeID, m.ip[Low], m.ip[High], m.instrs)
}

// Idle reports whether the machine has no runnable task and empty
// queues (it may still receive network messages).
func (m *Machine) Idle() bool { return m.quiescent() && !m.run[Low] }

// Busy reports whether the engine at pri is mid-task: a message has
// been dispatched (or a task resumed) and has not yet suspended.
func (m *Machine) Busy(pri int) bool { return m.run[pri] }

// Inject buffers a message into the queue at pri, as the hardware does
// for a local send, a network delivery or a host message that
// bootstraps a program; a delivery wakes a machine parked at WAIT. The
// message is placed and its words stored in one pass. The MDP buffers
// messages into on-chip memory, consuming space and bandwidth (paper
// §1.1.2 footnote), so the buffering records one data write per word,
// or one per word pair under the paired model, all of one class: the
// queues live in system data.
func (m *Machine) Inject(pri int, ws []word.Word) error {
	q := m.queues[pri]
	msg, err := q.Place(len(ws))
	if err != nil {
		return err
	}
	m.Mem.StoreWords(msg.Base, ws)
	if rec := m.rec[pri]; rec != nil {
		if rec != m.sink {
			m.switchTo(rec)
		}
		stride := 1
		if m.cfg.PairedQueueWrites {
			stride = 2
		}
		for i := 0; i < len(ws); i += stride {
			rec.Add(trace.Encode(trace.KindWrite, msg.Base+uint32(i)*mem.WordBytes))
		}
		rec.Writes[mem.Classify(msg.Base)] += uint64((len(ws) + stride - 1) / stride)
	}
	if m.probe != nil {
		m.probe.enqueue(m.nodeID, pri, msg, m.instrs, q.Len())
	}
	m.stalled = false
	return nil
}

// SetReg writes one of the registers r0-r7 directly (host bootstrap
// only).
func (m *Machine) SetReg(pri int, r uint8, w word.Word) { m.regs[pri][:isa.NumRegs][r] = w }

// ErrTrap wraps simulated runtime errors.
var ErrTrap = errors.New("machine trap")

// dispatch begins servicing the oldest message at pri. The hardware
// reads the handler address from the first message word (a traced read)
// and loads the message base register.
func (m *Machine) dispatch(pri int) {
	msg, ok := m.queues[pri].Front()
	if !ok {
		panic("machine: dispatch on empty queue")
	}
	rec := m.rec[pri]
	if rec != m.sink {
		m.switchTo(rec)
	}
	rec.Read(msg.Base)
	handler := m.Mem.Load(msg.Base)
	m.curMsg[pri] = msg
	m.inMsg[pri] = true
	m.run[pri] = true
	m.ip[pri] = handler.Addr()
	m.regs[pri][isa.RMsg] = word.Ptr(msg.Base)
	m.gran.Dispatch(pri, m.instrs)
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
func (m *Machine) Run() error {
	return m.RunContext(context.Background())
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
// can never be cancelled is never polled.
func (m *Machine) RunContext(ctx context.Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = m.Fault(r)
		}
	}()
	done := ctx.Done()
	for !m.halted {
		stop := m.limit
		if done != nil {
			stop = min(stop, m.instrs+CancelCheckInterval)
		}
		for m.instrs < stop && !m.halted {
			if !m.step(stop) {
				m.halted = true // quiescent
			}
		}
		if m.instrs >= m.limit {
			return m.overLimit()
		}
		if done != nil && !m.halted {
			select {
			case <-done:
				m.halted = true
				return fmt.Errorf("machine: run cancelled after %d instructions: %w",
					m.instrs, ctx.Err())
			default:
			}
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
