package machine

import (
	"fmt"

	"jmtam/internal/isa"
	"jmtam/internal/mem"
	"jmtam/internal/trace"
	"jmtam/internal/word"
)

// step runs one stretch, the interpreter's one body. It makes one
// priority decision, dispatching a message if needed, then executes
// instructions at that priority until one that can change the decision
// (SENDE, SUSPEND, EI, DI, WAIT, HALT or TRAP) has run, or until the
// instruction count reaches stop, which the caller keeps above it.
// Nothing else can change the decision: a task runs until it suspends,
// and a high-priority message preempts a low-priority task only while
// interrupts are enabled. step reports false, executing nothing, when
// no task is runnable or the machine is parked at WAIT. The instruction
// count and m.ip are written after every instruction, so faults, the
// instruction limit and cancellation see what they would see one
// instruction at a time.
//
// Every reference an instruction makes appends a packed word to the
// priority's recording, and the reference class is counted where it is
// known: the code-segment test of the fetch decides system against
// user code, and mem.Classify the data accesses. When that recording is
// not the one the last reference went to, the stretch switches to it
// before its first reference (see switchTo).
func (m *Machine) step(stop uint64) bool {
	pri := High
	switch {
	case m.stalled:
		// Parked at WAIT; only a network delivery (Inject) wakes it.
		return false
	case m.run[High]:
	case m.queues[High].Len() > 0 && (!m.run[Low] || m.intEn):
		m.dispatch(High)
	case m.run[Low]:
		pri = Low
	case m.queues[Low].Len() > 0:
		pri = Low
		m.dispatch(Low)
	default:
		return false
	}
	code, mm, rec, r := m.Code, m.Mem, m.rec[pri], &m.regs[pri]
	if rec != m.sink {
		m.switchTo(rec)
	}
	ip := m.ip[pri]
	for {
		in, cls := code.Fetch(ip)
		if in == nil {
			fetchFault(ip)
		}
		if rec != nil {
			rec.Fetches[cls]++
			rec.Add(trace.Encode(trace.KindFetch, ip))
		}
		m.instrs++
		if pri == High {
			m.hiInstrs++
		}
		m.opCounts[in.Op]++

		if m.probe != nil && (!m.probe.havePri || m.probe.lastPri != pri) {
			m.probe.priSwitch(m.nodeID, pri, m.instrs)
		}

		if in.Mark != isa.MarkNone {
			switch in.Mark {
			case isa.MarkThreadStart:
				m.gran.ThreadStart(r[isa.RFP].Addr(), m.instrs)
			case isa.MarkInletStart:
				m.gran.InletStart(r[isa.RFP].Addr(), m.instrs)
				if m.probe != nil {
					m.probe.inletEnter(pri, m.instrs)
				}
			case isa.MarkActivate:
				m.gran.Activate(r[isa.RFP].Addr(), m.instrs)
				if m.probe != nil {
					m.probe.frameDeq()
				}
			default:
				// Runtime-operation marks carry no granularity semantics;
				// they feed the observability sink only.
				if m.probe != nil {
					m.probe.mark(in.Mark)
				}
			}
		}

		next := ip + mem.WordBytes

		switch in.Op {
		case isa.OpNop:

		case isa.OpMovI:
			r[in.Rd] = word.Int(in.Imm)
		case isa.OpMovA:
			r[in.Rd] = word.Ptr(uint32(in.Imm))
		case isa.OpMovF:
			r[in.Rd] = word.Float(in.FImm)
		case isa.OpMov:
			r[in.Rd] = r[in.Ra]
		case isa.OpLEA:
			r[in.Rd] = word.Ptr(uint32(r[in.Ra].AsInt() + in.Imm))

		case isa.OpLD:
			addr := uint32(r[in.Ra].AsInt() + in.Imm)
			if rec != nil {
				rec.Reads[mem.Classify(addr)]++
				rec.Add(trace.Encode(trace.KindRead, addr))
			}
			r[in.Rd] = mm.Load(addr)
		case isa.OpST:
			addr := uint32(r[in.Ra].AsInt() + in.Imm)
			if rec != nil {
				rec.Writes[mem.Classify(addr)]++
				rec.Add(trace.Encode(trace.KindWrite, addr))
			}
			if !mm.TryStore(addr, r[in.Rb]) {
				mm.Store(addr, r[in.Rb])
			}
		case isa.OpLDPre:
			base := r[in.Ra]
			addr := uint32(base.AsInt() - mem.WordBytes)
			r[in.Ra] = word.Ptr(addr)
			if rec != nil {
				rec.Reads[mem.Classify(addr)]++
				rec.Add(trace.Encode(trace.KindRead, addr))
			}
			r[in.Rd] = mm.Load(addr)
		case isa.OpSTPost:
			addr := r[in.Ra].Addr()
			if rec != nil {
				rec.Writes[mem.Classify(addr)]++
				rec.Add(trace.Encode(trace.KindWrite, addr))
			}
			if !mm.TryStore(addr, r[in.Rb]) {
				mm.Store(addr, r[in.Rb])
			}
			r[in.Ra] = word.Ptr(addr + mem.WordBytes)

		case isa.OpAdd:
			r[in.Rd] = word.Int(r[in.Ra].AsInt() + r[in.Rb].AsInt())
		case isa.OpSub:
			r[in.Rd] = word.Int(r[in.Ra].AsInt() - r[in.Rb].AsInt())
		case isa.OpMul:
			r[in.Rd] = word.Int(r[in.Ra].AsInt() * r[in.Rb].AsInt())
		case isa.OpDiv:
			b := r[in.Rb].AsInt()
			if b == 0 {
				panic("divide by zero")
			}
			r[in.Rd] = word.Int(r[in.Ra].AsInt() / b)
		case isa.OpMod:
			b := r[in.Rb].AsInt()
			if b == 0 {
				panic("modulo by zero")
			}
			r[in.Rd] = word.Int(r[in.Ra].AsInt() % b)
		case isa.OpAnd:
			r[in.Rd] = word.Int(r[in.Ra].AsInt() & r[in.Rb].AsInt())
		case isa.OpOr:
			r[in.Rd] = word.Int(r[in.Ra].AsInt() | r[in.Rb].AsInt())
		case isa.OpXor:
			r[in.Rd] = word.Int(r[in.Ra].AsInt() ^ r[in.Rb].AsInt())
		case isa.OpShl:
			r[in.Rd] = word.Int(r[in.Ra].AsInt() << uint(r[in.Rb].AsInt()))
		case isa.OpShr:
			r[in.Rd] = word.Int(r[in.Ra].AsInt() >> uint(r[in.Rb].AsInt()))

		case isa.OpAddI:
			w := r[in.Ra]
			r[in.Rd] = word.Word{Tag: addTag(w), I: w.AsInt() + in.Imm}
		case isa.OpSubI:
			w := r[in.Ra]
			r[in.Rd] = word.Word{Tag: addTag(w), I: w.AsInt() - in.Imm}
		case isa.OpMulI:
			r[in.Rd] = word.Int(r[in.Ra].AsInt() * in.Imm)
		case isa.OpAndI:
			r[in.Rd] = word.Int(r[in.Ra].AsInt() & in.Imm)
		case isa.OpShlI:
			r[in.Rd] = word.Int(r[in.Ra].AsInt() << uint(in.Imm))
		case isa.OpShrI:
			r[in.Rd] = word.Int(r[in.Ra].AsInt() >> uint(in.Imm))

		case isa.OpFAdd:
			r[in.Rd] = word.Float(r[in.Ra].AsFloat() + r[in.Rb].AsFloat())
		case isa.OpFSub:
			r[in.Rd] = word.Float(r[in.Ra].AsFloat() - r[in.Rb].AsFloat())
		case isa.OpFMul:
			r[in.Rd] = word.Float(r[in.Ra].AsFloat() * r[in.Rb].AsFloat())
		case isa.OpFDiv:
			b := r[in.Rb].AsFloat()
			r[in.Rd] = word.Float(r[in.Ra].AsFloat() / b)
		case isa.OpFNeg:
			r[in.Rd] = word.Float(-r[in.Ra].AsFloat())
		case isa.OpIToF:
			r[in.Rd] = word.Float(float64(r[in.Ra].AsInt()))
		case isa.OpFToI:
			r[in.Rd] = word.Int(int64(r[in.Ra].AsFloat()))

		case isa.OpBR:
			next = in.Target
		case isa.OpJMP:
			next = r[in.Ra].Addr()
		case isa.OpJAL:
			r[in.Rd] = word.Ptr(next)
			next = in.Target
		case isa.OpBEQ:
			if r[in.Ra].AsInt() == r[in.Rb].AsInt() {
				next = in.Target
			}
		case isa.OpBNE:
			if r[in.Ra].AsInt() != r[in.Rb].AsInt() {
				next = in.Target
			}
		case isa.OpBLT:
			if r[in.Ra].AsInt() < r[in.Rb].AsInt() {
				next = in.Target
			}
		case isa.OpBLE:
			if r[in.Ra].AsInt() <= r[in.Rb].AsInt() {
				next = in.Target
			}
		case isa.OpBGT:
			if r[in.Ra].AsInt() > r[in.Rb].AsInt() {
				next = in.Target
			}
		case isa.OpBGE:
			if r[in.Ra].AsInt() >= r[in.Rb].AsInt() {
				next = in.Target
			}
		case isa.OpFBLT:
			if r[in.Ra].AsFloat() < r[in.Rb].AsFloat() {
				next = in.Target
			}
		case isa.OpFBLE:
			if r[in.Ra].AsFloat() <= r[in.Rb].AsFloat() {
				next = in.Target
			}
		case isa.OpBZ:
			if r[in.Ra].AsInt() == 0 {
				next = in.Target
			}
		case isa.OpBNZ:
			if r[in.Ra].AsInt() != 0 {
				next = in.Target
			}
		case isa.OpBTag:
			if r[in.Ra].Tag == word.Tag(in.Imm) {
				next = in.Target
			}

		case isa.OpTagSet:
			w := r[in.Ra]
			w.Tag = word.Tag(in.Imm)
			r[in.Rd] = w
		case isa.OpTagGet:
			r[in.Rd] = word.Int(int64(r[in.Ra].Tag))

		case isa.OpMsgI:
			m.beginMsg(pri, int(in.Imm))
		case isa.OpMsgR:
			m.beginMsg(pri, int(r[in.Ra].AsInt()))
		case isa.OpMsgDest:
			if !m.building[pri] {
				panic("MSGDEST without MSGI/MSGR")
			}
			m.sendDest[pri] = int(r[in.Ra].AsInt())
		case isa.OpSendW:
			m.appendMsg(pri, r[in.Ra])
		case isa.OpSendWI:
			m.appendMsg(pri, word.Int(in.Imm))
		case isa.OpSendWA:
			m.appendMsg(pri, word.Ptr(uint32(in.Imm)))
		case isa.OpSendE:
			m.deliver(pri)
			m.ip[pri] = next
			return true

		case isa.OpEI, isa.OpDI:
			if pri == Low {
				m.intEn = in.Op == isa.OpEI
			}
			m.ip[pri] = next
			return true
		case isa.OpSuspend:
			m.suspend(pri)
			m.ip[pri] = next
			return true
		case isa.OpWait:
			switch {
			case !m.quiescent():
				m.ip[pri] = next
			case m.router == nil:
				m.halted = true
			default:
				// On a mesh node quiescence is local: stall at this WAIT
				// (ip unchanged) until the cluster driver delivers a
				// message, which clears the stall.
				m.stalled = true
			}
			return true
		case isa.OpNode:
			r[in.Rd] = word.Int(int64(m.nodeID))
		case isa.OpHalt:
			m.halted = true
			return true
		case isa.OpTrap:
			m.halted = true
			m.trapErr = fmt.Errorf("%w: trap %d at %#x", ErrTrap, in.Imm, ip)
			return true

		default:
			panic(fmt.Sprintf("unimplemented opcode %v", in.Op))
		}

		m.ip[pri] = next
		if m.instrs >= stop {
			return true
		}
		ip = next
	}
}

// addTag preserves pointerness through ADDI/SUBI so address arithmetic
// keeps producing pointers.
func addTag(w word.Word) word.Tag {
	if w.Tag == word.TagPtr {
		return word.TagPtr
	}
	return word.TagInt
}

func (m *Machine) beginMsg(pri, destPri int) {
	if destPri != Low && destPri != High {
		panic(fmt.Sprintf("bad message priority %d", destPri))
	}
	m.sendPri[pri] = destPri
	m.sendDest[pri] = m.nodeID
	m.sendBuf[pri] = m.sendBuf[pri][:0]
	m.building[pri] = true
}

func (m *Machine) appendMsg(pri int, w word.Word) {
	if !m.building[pri] {
		panic("SENDW without MSGI/MSGR")
	}
	m.sendBuf[pri] = append(m.sendBuf[pri], w)
}

func (m *Machine) deliver(pri int) {
	if !m.building[pri] {
		panic("SENDE without MSGI/MSGR")
	}
	m.building[pri] = false
	if m.sendDest[pri] != m.nodeID {
		if m.router == nil {
			panic(fmt.Sprintf("message to node %d with no router", m.sendDest[pri]))
		}
		if err := m.router(m.sendDest[pri], m.sendPri[pri], m.sendBuf[pri]); err != nil {
			panic(err)
		}
		return
	}
	if err := m.Inject(m.sendPri[pri], m.sendBuf[pri]); err != nil {
		panic(err)
	}
}
