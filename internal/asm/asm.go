// Package asm provides a programmatic assembler for the simulated
// machine's instruction set.
//
// Code is assembled into segments (system code and user code) with
// byte-addressed labels and forward references. The runtime backends in
// internal/core use it to emit both the TAM system code (scheduler, post
// routine, I-structure and frame-allocation handlers) and the per-program
// inlets and threads, so instruction counts and instruction-cache
// behaviour of the two implementations arise from real code layout.
package asm

import (
	"fmt"
	"sort"
	"strings"

	"jmtam/internal/isa"
	"jmtam/internal/mem"
)

// Segment assembles instructions into a contiguous code region starting
// at Base. The zero value is not usable; construct with NewSegment.
type Segment struct {
	Name string
	Base uint32

	code    []isa.Instr
	labels  map[string]uint32
	fixups  []fixup
	pending isa.MarkKind
	limit   uint32
}

type fixup struct {
	index int
	label string
}

// NewSegment returns an empty segment named name based at base, refusing
// to grow beyond limit bytes.
func NewSegment(name string, base, limit uint32) *Segment {
	return &Segment{Name: name, Base: base, labels: make(map[string]uint32), limit: limit}
}

// NewSys returns a segment covering the system-code region.
func NewSys() *Segment { return NewSegment("sys", mem.SysCodeBase, mem.UserCodeBase-mem.SysCodeBase) }

// NewUser returns a segment covering the user-code region.
func NewUser() *Segment {
	return NewSegment("user", mem.UserCodeBase, mem.SysDataBase-mem.UserCodeBase)
}

// PC returns the byte address of the next instruction to be emitted.
func (s *Segment) PC() uint32 { return s.Base + uint32(len(s.code))*mem.WordBytes }

// Len returns the number of instructions assembled so far.
func (s *Segment) Len() int { return len(s.code) }

// Code returns the assembled instruction slice. Call Finish first.
func (s *Segment) Code() []isa.Instr { return s.code }

// Label defines name at the current PC and returns its address. Defining
// the same label twice panics: label names are expected to be generated
// uniquely by the runtime code generators.
func (s *Segment) Label(name string) uint32 {
	if _, dup := s.labels[name]; dup {
		panic(fmt.Sprintf("asm: duplicate label %q in segment %s", name, s.Name))
	}
	addr := s.PC()
	s.labels[name] = addr
	return addr
}

// Addr returns the address of a defined label, panicking if undefined.
func (s *Segment) Addr(name string) uint32 {
	a, ok := s.labels[name]
	if !ok {
		panic(fmt.Sprintf("asm: undefined label %q in segment %s", name, s.Name))
	}
	return a
}

// Mark attaches a statistics annotation to the next emitted instruction.
func (s *Segment) Mark(k isa.MarkKind) { s.pending = k }

func (s *Segment) emit(i isa.Instr) {
	if uint32(len(s.code)+1)*mem.WordBytes > s.limit {
		panic(fmt.Sprintf("asm: segment %s overflow", s.Name))
	}
	if s.pending != isa.MarkNone {
		i.Mark = s.pending
		s.pending = isa.MarkNone
	}
	s.code = append(s.code, i)
}

func (s *Segment) emitRef(i isa.Instr, label string) {
	if addr, ok := s.labels[label]; ok {
		patch(&i, addr)
		s.emit(i)
		return
	}
	s.emit(i)
	s.fixups = append(s.fixups, fixup{index: len(s.code) - 1, label: label})
}

// patch writes a resolved label address into the field the opcode
// actually consumes: MOVA and SENDWA carry addresses in Imm, control
// transfers in Target.
func patch(i *isa.Instr, addr uint32) {
	switch i.Op {
	case isa.OpMovA, isa.OpSendWA:
		i.Imm = int64(addr)
	default:
		i.Target = addr
	}
}

// Finish resolves all forward references. It must be called once after
// assembly; it returns an error listing any unresolved labels. It also
// refuses the first instruction that names a register other than r0-r7
// and rz, or writes rz, so the machine can read rz from a register slot
// that is never written.
func (s *Segment) Finish() error {
	for k, in := range s.code {
		if bad := badRegister(in); bad != "" {
			return fmt.Errorf("asm: segment %s: %q at %#x %s",
				s.Name, in, s.Base+uint32(k)*mem.WordBytes, bad)
		}
	}
	var missing []string
	for _, f := range s.fixups {
		addr, ok := s.labels[f.label]
		if !ok {
			missing = append(missing, f.label)
			continue
		}
		patch(&s.code[f.index], addr)
	}
	s.fixups = nil
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("asm: segment %s: unresolved labels: %s", s.Name, strings.Join(missing, ", "))
	}
	return nil
}

// badRegister says what is wrong with the registers an instruction
// names, or returns "".
func badRegister(in isa.Instr) string {
	for _, r := range [...]uint8{in.Rd, in.Ra, in.Rb} {
		if r >= isa.NumRegs && r != isa.RZ {
			return fmt.Sprintf("names r%d", r)
		}
	}
	autoInc := in.Op == isa.OpLDPre || in.Op == isa.OpSTPost
	if in.Op.WritesRd() && in.Rd == isa.RZ || autoInc && in.Ra == isa.RZ {
		return "writes rz"
	}
	return ""
}

// PopLast removes the most recently emitted instruction (and any fixup
// referring to it), supporting peephole edits such as deleting a branch
// that turned out to be a fall-through. It refuses — returning false —
// when a label has been defined at or past the instruction, since
// deleting it would retarget the label.
func (s *Segment) PopLast() bool {
	if len(s.code) == 0 {
		return false
	}
	last := len(s.code) - 1
	for _, addr := range s.labels {
		if addr >= s.Base+uint32(last)*mem.WordBytes {
			return false
		}
	}
	for i := len(s.fixups) - 1; i >= 0; i-- {
		if s.fixups[i].index == last {
			s.fixups = append(s.fixups[:i], s.fixups[i+1:]...)
		}
	}
	s.code = s.code[:last]
	return true
}

// --- Emitters -------------------------------------------------------------

// Nop emits a no-op.
func (s *Segment) Nop() { s.emit(isa.Instr{Op: isa.OpNop}) }

// MovI emits Rd <- int(imm).
func (s *Segment) MovI(rd uint8, imm int64) { s.emit(isa.Instr{Op: isa.OpMovI, Rd: rd, Imm: imm}) }

// MovA emits Rd <- ptr(addr).
func (s *Segment) MovA(rd uint8, addr uint32) {
	s.emit(isa.Instr{Op: isa.OpMovA, Rd: rd, Imm: int64(addr)})
}

// MovALabel emits Rd <- ptr(label), resolving the label at Finish time.
// The label address is carried in Target and copied to the immediate.
func (s *Segment) MovALabel(rd uint8, label string) {
	s.emitRef(isa.Instr{Op: isa.OpMovA, Rd: rd, Imm: -1}, label)
}

// MovF emits Rd <- float(f).
func (s *Segment) MovF(rd uint8, f float64) { s.emit(isa.Instr{Op: isa.OpMovF, Rd: rd, FImm: f}) }

// Mov emits Rd <- Ra.
func (s *Segment) Mov(rd, ra uint8) { s.emit(isa.Instr{Op: isa.OpMov, Rd: rd, Ra: ra}) }

// LEA emits Rd <- ptr(Ra + off).
func (s *Segment) LEA(rd, ra uint8, off int64) {
	s.emit(isa.Instr{Op: isa.OpLEA, Rd: rd, Ra: ra, Imm: off})
}

// LD emits Rd <- mem[Ra + off].
func (s *Segment) LD(rd, ra uint8, off int64) {
	s.emit(isa.Instr{Op: isa.OpLD, Rd: rd, Ra: ra, Imm: off})
}

// ST emits mem[Ra + off] <- Rb.
func (s *Segment) ST(ra uint8, off int64, rb uint8) {
	s.emit(isa.Instr{Op: isa.OpST, Ra: ra, Rb: rb, Imm: off})
}

// LDPre emits Ra -= 4; Rd <- mem[Ra] (pre-decrement pop).
func (s *Segment) LDPre(rd, ra uint8) {
	s.emit(isa.Instr{Op: isa.OpLDPre, Rd: rd, Ra: ra})
}

// STPost emits mem[Ra] <- Rb; Ra += 4 (post-increment push).
func (s *Segment) STPost(ra, rb uint8) {
	s.emit(isa.Instr{Op: isa.OpSTPost, Ra: ra, Rb: rb})
}

// LDAbs emits Rd <- mem[addr] using absolute addressing (base RZ).
func (s *Segment) LDAbs(rd uint8, addr uint32) { s.LD(rd, isa.RZ, int64(addr)) }

// STAbs emits mem[addr] <- Rb using absolute addressing.
func (s *Segment) STAbs(addr uint32, rb uint8) { s.ST(isa.RZ, int64(addr), rb) }

func (s *Segment) alu3(op isa.Op, rd, ra, rb uint8) {
	s.emit(isa.Instr{Op: op, Rd: rd, Ra: ra, Rb: rb})
}

func (s *Segment) aluI(op isa.Op, rd, ra uint8, imm int64) {
	s.emit(isa.Instr{Op: op, Rd: rd, Ra: ra, Imm: imm})
}

// Add emits Rd <- Ra + Rb; the remaining three-register ALU emitters
// follow the same shape.
func (s *Segment) Add(rd, ra, rb uint8)  { s.alu3(isa.OpAdd, rd, ra, rb) }
func (s *Segment) Sub(rd, ra, rb uint8)  { s.alu3(isa.OpSub, rd, ra, rb) }
func (s *Segment) Mul(rd, ra, rb uint8)  { s.alu3(isa.OpMul, rd, ra, rb) }
func (s *Segment) Div(rd, ra, rb uint8)  { s.alu3(isa.OpDiv, rd, ra, rb) }
func (s *Segment) Mod(rd, ra, rb uint8)  { s.alu3(isa.OpMod, rd, ra, rb) }
func (s *Segment) And(rd, ra, rb uint8)  { s.alu3(isa.OpAnd, rd, ra, rb) }
func (s *Segment) Or(rd, ra, rb uint8)   { s.alu3(isa.OpOr, rd, ra, rb) }
func (s *Segment) Xor(rd, ra, rb uint8)  { s.alu3(isa.OpXor, rd, ra, rb) }
func (s *Segment) Shl(rd, ra, rb uint8)  { s.alu3(isa.OpShl, rd, ra, rb) }
func (s *Segment) Shr(rd, ra, rb uint8)  { s.alu3(isa.OpShr, rd, ra, rb) }
func (s *Segment) FAdd(rd, ra, rb uint8) { s.alu3(isa.OpFAdd, rd, ra, rb) }
func (s *Segment) FSub(rd, ra, rb uint8) { s.alu3(isa.OpFSub, rd, ra, rb) }
func (s *Segment) FMul(rd, ra, rb uint8) { s.alu3(isa.OpFMul, rd, ra, rb) }
func (s *Segment) FDiv(rd, ra, rb uint8) { s.alu3(isa.OpFDiv, rd, ra, rb) }

// AddI emits Rd <- Ra + imm; the remaining register-immediate ALU
// emitters follow the same shape.
func (s *Segment) AddI(rd, ra uint8, imm int64) { s.aluI(isa.OpAddI, rd, ra, imm) }
func (s *Segment) SubI(rd, ra uint8, imm int64) { s.aluI(isa.OpSubI, rd, ra, imm) }
func (s *Segment) MulI(rd, ra uint8, imm int64) { s.aluI(isa.OpMulI, rd, ra, imm) }
func (s *Segment) AndI(rd, ra uint8, imm int64) { s.aluI(isa.OpAndI, rd, ra, imm) }
func (s *Segment) ShlI(rd, ra uint8, imm int64) { s.aluI(isa.OpShlI, rd, ra, imm) }
func (s *Segment) ShrI(rd, ra uint8, imm int64) { s.aluI(isa.OpShrI, rd, ra, imm) }

// FNeg emits Rd <- -Ra.
func (s *Segment) FNeg(rd, ra uint8) { s.emit(isa.Instr{Op: isa.OpFNeg, Rd: rd, Ra: ra}) }

// IToF emits Rd <- float(Ra).
func (s *Segment) IToF(rd, ra uint8) { s.emit(isa.Instr{Op: isa.OpIToF, Rd: rd, Ra: ra}) }

// FToI emits Rd <- int(Ra).
func (s *Segment) FToI(rd, ra uint8) { s.emit(isa.Instr{Op: isa.OpFToI, Rd: rd, Ra: ra}) }

// BR emits an unconditional branch to label.
func (s *Segment) BR(label string) { s.emitRef(isa.Instr{Op: isa.OpBR}, label) }

// BRA emits an unconditional branch to an absolute address (possibly in
// another segment).
func (s *Segment) BRA(addr uint32) { s.emit(isa.Instr{Op: isa.OpBR, Target: addr}) }

// JMP emits an indirect jump through Ra.
func (s *Segment) JMP(ra uint8) { s.emit(isa.Instr{Op: isa.OpJMP, Ra: ra}) }

// JAL emits a jump-and-link to label, leaving the return address in Rd.
func (s *Segment) JAL(rd uint8, label string) { s.emitRef(isa.Instr{Op: isa.OpJAL, Rd: rd}, label) }

// JALA emits a jump-and-link to an absolute address.
func (s *Segment) JALA(rd uint8, addr uint32) {
	s.emit(isa.Instr{Op: isa.OpJAL, Rd: rd, Target: addr})
}

func (s *Segment) branch2(op isa.Op, ra, rb uint8, label string) {
	s.emitRef(isa.Instr{Op: op, Ra: ra, Rb: rb}, label)
}

// BEQ emits if Ra == Rb goto label; the remaining compare-branch emitters
// follow the same shape.
func (s *Segment) BEQ(ra, rb uint8, label string)  { s.branch2(isa.OpBEQ, ra, rb, label) }
func (s *Segment) BNE(ra, rb uint8, label string)  { s.branch2(isa.OpBNE, ra, rb, label) }
func (s *Segment) BLT(ra, rb uint8, label string)  { s.branch2(isa.OpBLT, ra, rb, label) }
func (s *Segment) BLE(ra, rb uint8, label string)  { s.branch2(isa.OpBLE, ra, rb, label) }
func (s *Segment) BGT(ra, rb uint8, label string)  { s.branch2(isa.OpBGT, ra, rb, label) }
func (s *Segment) BGE(ra, rb uint8, label string)  { s.branch2(isa.OpBGE, ra, rb, label) }
func (s *Segment) FBLT(ra, rb uint8, label string) { s.branch2(isa.OpFBLT, ra, rb, label) }
func (s *Segment) FBLE(ra, rb uint8, label string) { s.branch2(isa.OpFBLE, ra, rb, label) }

// BZ emits if Ra == 0 goto label.
func (s *Segment) BZ(ra uint8, label string) { s.emitRef(isa.Instr{Op: isa.OpBZ, Ra: ra}, label) }

// BNZ emits if Ra != 0 goto label.
func (s *Segment) BNZ(ra uint8, label string) { s.emitRef(isa.Instr{Op: isa.OpBNZ, Ra: ra}, label) }

// BTag emits if tag(Ra) == t goto label.
func (s *Segment) BTag(ra uint8, t uint8, label string) {
	s.emitRef(isa.Instr{Op: isa.OpBTag, Ra: ra, Imm: int64(t)}, label)
}

// MsgI begins a message destined for priority pri (0 or 1).
func (s *Segment) MsgI(pri int64) { s.emit(isa.Instr{Op: isa.OpMsgI, Imm: pri}) }

// MsgR begins a message destined for the priority held in Ra.
func (s *Segment) MsgR(ra uint8) { s.emit(isa.Instr{Op: isa.OpMsgR, Ra: ra}) }

// MsgDest directs the current message to the node held in Ra.
func (s *Segment) MsgDest(ra uint8) { s.emit(isa.Instr{Op: isa.OpMsgDest, Ra: ra}) }

// SendW appends register Ra to the current message.
func (s *Segment) SendW(ra uint8) { s.emit(isa.Instr{Op: isa.OpSendW, Ra: ra}) }

// SendWI appends int(imm) to the current message.
func (s *Segment) SendWI(imm int64) { s.emit(isa.Instr{Op: isa.OpSendWI, Imm: imm}) }

// SendWA appends ptr(addr) to the current message.
func (s *Segment) SendWA(addr uint32) { s.emit(isa.Instr{Op: isa.OpSendWA, Imm: int64(addr)}) }

// SendWALabel appends ptr(label), resolving the label at Finish time.
func (s *Segment) SendWALabel(label string) {
	s.emitRef(isa.Instr{Op: isa.OpSendWA, Imm: -1}, label)
}

// SendE delivers the current message.
func (s *Segment) SendE() { s.emit(isa.Instr{Op: isa.OpSendE}) }

// EI enables low-priority interrupts.
func (s *Segment) EI() { s.emit(isa.Instr{Op: isa.OpEI}) }

// DI disables low-priority interrupts.
func (s *Segment) DI() { s.emit(isa.Instr{Op: isa.OpDI}) }

// Suspend ends the current task.
func (s *Segment) Suspend() { s.emit(isa.Instr{Op: isa.OpSuspend}) }

// Wait emits the idle-poll instruction used by the AM scheduler loop.
func (s *Segment) Wait() { s.emit(isa.Instr{Op: isa.OpWait}) }

// Halt stops the simulation.
func (s *Segment) Halt() { s.emit(isa.Instr{Op: isa.OpHalt}) }

// Trap emits a runtime error with the given code.
func (s *Segment) Trap(code int64) { s.emit(isa.Instr{Op: isa.OpTrap, Imm: code}) }

// MyNode emits Rd <- int(local node number) — the MDP's network node
// register. On a uniprocessor it reads zero.
func (s *Segment) MyNode(rd uint8) { s.emit(isa.Instr{Op: isa.OpNode, Rd: rd}) }

// TagSet emits Rd <- Ra with its tag forced to t.
func (s *Segment) TagSet(rd, ra, t uint8) {
	s.emit(isa.Instr{Op: isa.OpTagSet, Rd: rd, Ra: ra, Imm: int64(t)})
}

// TagGet emits Rd <- int(tag(Ra)).
func (s *Segment) TagGet(rd, ra uint8) { s.emit(isa.Instr{Op: isa.OpTagGet, Rd: rd, Ra: ra}) }

// Dump renders a disassembly listing with label annotations.
func (s *Segment) Dump() string {
	byAddr := make(map[uint32][]string)
	for name, addr := range s.labels {
		byAddr[addr] = append(byAddr[addr], name)
	}
	var b strings.Builder
	for i, ins := range s.code {
		addr := s.Base + uint32(i)*mem.WordBytes
		if names := byAddr[addr]; names != nil {
			sort.Strings(names)
			for _, n := range names {
				fmt.Fprintf(&b, "%s:\n", n)
			}
		}
		fmt.Fprintf(&b, "  %08x  %s\n", addr, ins)
	}
	return b.String()
}
