// Package isa defines the instruction set of the simulated
// Message-Driven-Processor-like machine.
//
// The machine is a load/store register machine with 8 general-purpose
// tagged-word registers per priority level, word-granularity memory
// access, hardware message send/dispatch, and interrupt enable/disable
// for the low priority level. It is deliberately close in spirit to the
// MDP: two complete priority levels with separate register files,
// messages buffered directly into on-chip memory, and dispatch occurring
// when the current task suspends.
//
// Instructions occupy one 4-byte word of code address space each, so
// instruction-fetch traffic is proportional to dynamic instruction count,
// matching the cycle model of the paper (one cycle per instruction plus
// cache miss penalties).
package isa

import "fmt"

// NumRegs is the number of general-purpose registers per priority level.
const NumRegs = 8

// Register conventions used by the runtime and generated code. They are
// conventions only; the hardware treats all 8 registers uniformly except
// that RMsg is loaded with the message base address at dispatch.
const (
	RMsg  = 5 // base byte address of the current message (set at dispatch)
	RFP   = 6 // current frame pointer in user code
	RLink = 7 // link register for JAL-called runtime routines
)

// RZ is a pseudo register that always reads as integer zero. Using it as
// a base register gives absolute addressing.
const RZ = 15

// Op enumerates instruction opcodes.
type Op uint8

// Opcodes. Operand roles are noted per group.
const (
	OpNop Op = iota

	// Data movement. MOVI/MOVA/MOVF load immediates (int, pointer,
	// float); MOV copies a register; LEA computes Ra+Imm as a pointer.
	OpMovI // Rd <- int(Imm)
	OpMovA // Rd <- ptr(Imm)
	OpMovF // Rd <- float(FImm)
	OpMov  // Rd <- Ra
	OpLEA  // Rd <- ptr(Ra + Imm)

	// Memory. Addresses are Ra + Imm (byte offset); Ra may be RZ.
	// LDPre and STPost provide the MDP's auto-increment addressing for
	// stack-like structures: LDPre decrements Ra by one word and loads
	// through it; STPost stores through Ra and increments it.
	OpLD     // Rd <- mem[Ra+Imm]
	OpST     // mem[Ra+Imm] <- Rb
	OpLDPre  // Ra -= 4; Rd <- mem[Ra]
	OpSTPost // mem[Ra] <- Rb; Ra += 4

	// Integer ALU, three-register and register-immediate forms.
	OpAdd  // Rd <- Ra + Rb
	OpSub  // Rd <- Ra - Rb
	OpMul  // Rd <- Ra * Rb
	OpDiv  // Rd <- Ra / Rb (trap on zero)
	OpMod  // Rd <- Ra % Rb (trap on zero)
	OpAnd  // Rd <- Ra & Rb
	OpOr   // Rd <- Ra | Rb
	OpXor  // Rd <- Ra ^ Rb
	OpShl  // Rd <- Ra << Rb
	OpShr  // Rd <- Ra >> Rb
	OpAddI // Rd <- Ra + Imm
	OpSubI // Rd <- Ra - Imm
	OpMulI // Rd <- Ra * Imm
	OpAndI // Rd <- Ra & Imm
	OpShlI // Rd <- Ra << Imm
	OpShrI // Rd <- Ra >> Imm

	// Floating point.
	OpFAdd // Rd <- Ra + Rb
	OpFSub // Rd <- Ra - Rb
	OpFMul // Rd <- Ra * Rb
	OpFDiv // Rd <- Ra / Rb
	OpFNeg // Rd <- -Ra
	OpIToF // Rd <- float(Ra)
	OpFToI // Rd <- int(Ra)

	// Control transfer. Branch targets are absolute byte addresses,
	// resolved by the assembler.
	OpBR   // goto Target
	OpJMP  // goto Ra
	OpJAL  // Rd <- return address; goto Target
	OpBEQ  // if Ra == Rb goto Target (integer compare)
	OpBNE  // if Ra != Rb
	OpBLT  // if Ra < Rb
	OpBLE  // if Ra <= Rb
	OpBGT  // if Ra > Rb
	OpBGE  // if Ra >= Rb
	OpFBLT // if Ra < Rb (float compare)
	OpFBLE // if Ra <= Rb (float compare)
	OpBZ   // if Ra == 0
	OpBNZ  // if Ra != 0
	OpBTag // if tag(Ra) == Tag(Imm) goto Target

	// Tag manipulation for I-structure bookkeeping.
	OpTagSet // Rd <- Ra with tag set to Tag(Imm)
	OpTagGet // Rd <- int(tag(Ra))

	// Messaging. A message is begun with MSGI/MSGR (selecting the
	// destination priority), extended with SENDW*, and delivered by
	// SENDE. MSGDEST selects a destination node for multi-node
	// configurations; the default destination is the local node.
	OpMsgI    // begin message at priority Imm (0 = low, 1 = high)
	OpMsgR    // begin message at priority Ra
	OpMsgDest // destination node <- Ra
	OpSendW   // append register Ra
	OpSendWI  // append int(Imm)
	OpSendWA  // append ptr(Imm)
	OpSendE   // deliver the message

	// Machine control.
	OpEI      // enable low-priority interrupts
	OpDI      // disable low-priority interrupts
	OpSuspend // end current task; dispatch next message at this priority
	OpWait    // idle poll: halt if quiescent (stall instead under a router)
	OpHalt    // stop simulation immediately
	OpTrap    // runtime error Imm
	OpNode    // Rd <- int(local node number), the MDP's NNR

	NumOps
)

var opNames = [NumOps]string{
	OpNop: "nop", OpMovI: "movi", OpMovA: "mova", OpMovF: "movf",
	OpMov: "mov", OpLEA: "lea", OpLD: "ld", OpST: "st",
	OpLDPre: "ldpre", OpSTPost: "stpost",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpAddI: "addi", OpSubI: "subi", OpMulI: "muli", OpAndI: "andi",
	OpShlI: "shli", OpShrI: "shri",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpFNeg: "fneg", OpIToF: "itof", OpFToI: "ftoi",
	OpBR: "br", OpJMP: "jmp", OpJAL: "jal",
	OpBEQ: "beq", OpBNE: "bne", OpBLT: "blt", OpBLE: "ble",
	OpBGT: "bgt", OpBGE: "bge", OpFBLT: "fblt", OpFBLE: "fble",
	OpBZ: "bz", OpBNZ: "bnz", OpBTag: "btag",
	OpTagSet: "tagset", OpTagGet: "tagget",
	OpMsgI: "msgi", OpMsgR: "msgr", OpMsgDest: "msgdest",
	OpSendW: "sendw", OpSendWI: "sendwi", OpSendWA: "sendwa", OpSendE: "sende",
	OpEI: "ei", OpDI: "di", OpSuspend: "suspend", OpWait: "wait",
	OpHalt: "halt", OpTrap: "trap", OpNode: "node",
}

// Class buckets the opcode for instruction-mix reporting: "mem"
// (loads/stores), "alu" (integer arithmetic and logic), "float",
// "control" (branches and jumps), "msg" (message composition and send),
// "machine" (interrupt control, suspend, wait, halt, trap), "move"
// (immediates, register copies, LEA, tag ops) or "misc" (nop). Every
// opcode belongs to exactly one class.
func (o Op) Class() string {
	switch {
	case o == OpLD || o == OpST || o == OpLDPre || o == OpSTPost:
		return "mem"
	case o >= OpAdd && o <= OpShrI:
		return "alu"
	case o >= OpFAdd && o <= OpFToI:
		return "float"
	case o >= OpBR && o <= OpBTag:
		return "control"
	case o >= OpMsgI && o <= OpSendE:
		return "msg"
	case o >= OpEI && o <= OpTrap:
		return "machine"
	case o >= OpMovI && o <= OpLEA || o == OpTagSet || o == OpTagGet || o == OpNode:
		return "move"
	default:
		return "misc"
	}
}

// WritesRd reports whether the opcode writes register Rd. LDPre and
// STPost also write their base register Ra.
func (o Op) WritesRd() bool {
	switch {
	case o >= OpMovI && o <= OpLD, o == OpLDPre, o >= OpAdd && o <= OpFToI,
		o == OpJAL, o == OpTagSet, o == OpTagGet, o == OpNode:
		return true
	}
	return false
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// MarkKind classifies statistics annotations attached to instructions.
// Marks are metadata: they cost no cycles and generate no memory traffic,
// they merely notify the statistics observer when the annotated
// instruction is executed.
type MarkKind uint8

// Mark kinds. ThreadStart/InletStart fire with the current frame pointer;
// Activate fires when the AM scheduler begins a frame activation. The
// remaining kinds instrument runtime operations for the observability
// sink: Post marks entry to the post routine, FrameEnq the append of a
// frame to the ready queue, and the CV kinds the push/pop sites of the
// local and remote continuation vectors.
const (
	MarkNone MarkKind = iota
	MarkThreadStart
	MarkInletStart
	MarkActivate
	MarkPost
	MarkFrameEnq
	MarkLCVPush
	MarkLCVPop
	MarkRCVPush
	MarkRCVPop
)

// Instr is one decoded instruction. Target holds absolute branch/jump
// destinations (filled in by the assembler's fixup pass).
type Instr struct {
	Op     Op
	Rd     uint8
	Ra     uint8
	Rb     uint8
	Imm    int64
	FImm   float64
	Target uint32
	Mark   MarkKind
}

// HasMemRead reports whether the instruction reads data memory.
func (i Instr) HasMemRead() bool { return i.Op == OpLD || i.Op == OpLDPre }

// HasMemWrite reports whether the instruction writes data memory.
func (i Instr) HasMemWrite() bool { return i.Op == OpST || i.Op == OpSTPost }

// IsBranch reports whether the instruction may transfer control.
func (i Instr) IsBranch() bool {
	switch i.Op {
	case OpBR, OpJMP, OpJAL, OpBEQ, OpBNE, OpBLT, OpBLE, OpBGT, OpBGE,
		OpFBLT, OpFBLE, OpBZ, OpBNZ, OpBTag:
		return true
	}
	return false
}

// String disassembles the instruction.
func (i Instr) String() string {
	r := func(n uint8) string {
		if n == RZ {
			return "rz"
		}
		return fmt.Sprintf("r%d", n)
	}
	switch i.Op {
	case OpNop, OpSendE, OpEI, OpDI, OpSuspend, OpWait, OpHalt:
		return i.Op.String()
	case OpMovI, OpMovA:
		return fmt.Sprintf("%s %s, %d", i.Op, r(i.Rd), i.Imm)
	case OpMovF:
		return fmt.Sprintf("%s %s, %g", i.Op, r(i.Rd), i.FImm)
	case OpMov, OpFNeg, OpIToF, OpFToI, OpTagGet:
		return fmt.Sprintf("%s %s, %s", i.Op, r(i.Rd), r(i.Ra))
	case OpLEA, OpAddI, OpSubI, OpMulI, OpAndI, OpShlI, OpShrI, OpTagSet:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, r(i.Rd), r(i.Ra), i.Imm)
	case OpLD:
		return fmt.Sprintf("ld %s, [%s+%d]", r(i.Rd), r(i.Ra), i.Imm)
	case OpST:
		return fmt.Sprintf("st [%s+%d], %s", r(i.Ra), i.Imm, r(i.Rb))
	case OpLDPre:
		return fmt.Sprintf("ldpre %s, [--%s]", r(i.Rd), r(i.Ra))
	case OpSTPost:
		return fmt.Sprintf("stpost [%s++], %s", r(i.Ra), r(i.Rb))
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpShl,
		OpShr, OpFAdd, OpFSub, OpFMul, OpFDiv:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, r(i.Rd), r(i.Ra), r(i.Rb))
	case OpBR:
		return fmt.Sprintf("br %#x", i.Target)
	case OpJMP:
		return fmt.Sprintf("jmp %s", r(i.Ra))
	case OpJAL:
		return fmt.Sprintf("jal %s, %#x", r(i.Rd), i.Target)
	case OpBEQ, OpBNE, OpBLT, OpBLE, OpBGT, OpBGE, OpFBLT, OpFBLE:
		return fmt.Sprintf("%s %s, %s, %#x", i.Op, r(i.Ra), r(i.Rb), i.Target)
	case OpBZ, OpBNZ:
		return fmt.Sprintf("%s %s, %#x", i.Op, r(i.Ra), i.Target)
	case OpBTag:
		return fmt.Sprintf("btag %s, %d, %#x", r(i.Ra), i.Imm, i.Target)
	case OpMsgI:
		return fmt.Sprintf("msgi %d", i.Imm)
	case OpMsgR, OpMsgDest, OpSendW:
		return fmt.Sprintf("%s %s", i.Op, r(i.Ra))
	case OpNode:
		return fmt.Sprintf("node %s", r(i.Rd))
	case OpSendWI, OpSendWA, OpTrap:
		return fmt.Sprintf("%s %d", i.Op, i.Imm)
	}
	return i.Op.String()
}
