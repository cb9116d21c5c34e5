// Package machine implements the simulated Message-Driven-Processor-like
// execution engine: two priority levels with separate register files and
// message queues, hardware message buffering and dispatch-on-suspend,
// interrupt enable/disable windows for low priority, and the hooks that
// feed the cache simulator and granularity statistics.
//
// The reference stream has one concrete sink, a *trace.Recording per
// priority (the same one twice unless a NIC engine takes the
// high-priority share). The interpreter appends each packed reference
// with the recording's inlined Add and counts its class at the
// reference, where it is already known: the code-segment test of the
// fetch, mem.Classify for data accesses, and one class per buffered
// message, whose words are placed and stored in one pass.
//
// The interpreter's one body, step, runs a stretch: it makes one
// priority decision and then executes at that priority until an
// instruction that can change the decision (SENDE, SUSPEND, EI, DI,
// WAIT, HALT or TRAP) or a stop count. On the MDP a task runs until it
// suspends, and a high-priority message preempts only while interrupts
// are enabled, so nothing else can change it. RunContext runs stretches
// up to its next cancellation poll or the instruction limit; Step runs
// a stretch of one instruction, so a lockstep mesh still interleaves
// nodes an instruction at a time. Data loads and stores inline
// (mem.Memory.Load and Store), and rz reads from a register slot
// nothing writes. Every fault becomes a trap error with Fault's text.
package machine

import (
	"fmt"

	"jmtam/internal/isa"
	"jmtam/internal/mem"
)

// CodeStore holds the two instruction segments. Instructions are indexed
// by byte address (one instruction per word).
type CodeStore struct {
	segs [2][]isa.Instr // system code, then user code
}

// NewCodeStore builds a code store from assembled segments.
func NewCodeStore(sys, user []isa.Instr) *CodeStore {
	return &CodeStore{segs: [2][]isa.Instr{sys, user}}
}

// Fetch returns the instruction at byte address addr and its reference
// class, or nil outside the code: one segment test picks the segment
// and the class, and one bounds check guards the index. It inlines
// into the interpreter loop.
func (c *CodeStore) Fetch(addr uint32) (*isa.Instr, mem.Class) {
	var u uint32 // 1 in user code
	if addr >= mem.UserCodeBase {
		u = 1
	}
	seg := c.segs[u&1]
	if i := (addr - u*mem.UserCodeBase) / mem.WordBytes; i < uint32(len(seg)) {
		return &seg[i], mem.ClassSysCode + mem.Class(u) // ClassUserCode follows ClassSysCode
	}
	return nil, 0
}

// fetchFault panics for an instruction fetch outside the code segments.
//
//go:noinline
func fetchFault(addr uint32) {
	seg := "system"
	if addr >= mem.UserCodeBase {
		seg = "user"
	}
	panic(fmt.Sprintf("machine: fetch outside %s code at %#x", seg, addr))
}

// SysWords and UserWords report segment sizes in instructions.
func (c *CodeStore) SysWords() int  { return len(c.segs[0]) }
func (c *CodeStore) UserWords() int { return len(c.segs[1]) }
