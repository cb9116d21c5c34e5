package asm

import (
	"strings"
	"testing"

	"jmtam/internal/isa"
	"jmtam/internal/mem"
)

func TestLabelsAndPC(t *testing.T) {
	s := NewUser()
	if s.PC() != mem.UserCodeBase {
		t.Fatalf("initial PC = %#x", s.PC())
	}
	a := s.Label("start")
	s.Nop()
	s.Nop()
	b := s.Label("two")
	if a != mem.UserCodeBase || b != mem.UserCodeBase+8 {
		t.Errorf("labels at %#x, %#x", a, b)
	}
	if s.Addr("two") != b {
		t.Error("Addr lookup wrong")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestForwardReference(t *testing.T) {
	s := NewSys()
	s.BR("later")
	s.MovALabel(0, "later")
	s.SendWALabel("later") // needs a message context at run time, not at asm time
	addr := s.Label("later")
	s.Nop()
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	code := s.Code()
	if code[0].Target != addr {
		t.Errorf("BR target = %#x, want %#x", code[0].Target, addr)
	}
	if uint32(code[1].Imm) != addr {
		t.Errorf("MOVA imm = %#x, want %#x", code[1].Imm, addr)
	}
	if uint32(code[2].Imm) != addr {
		t.Errorf("SENDWA imm = %#x, want %#x", code[2].Imm, addr)
	}
}

func TestBackwardReference(t *testing.T) {
	s := NewSys()
	addr := s.Label("loop")
	s.Nop()
	s.BR("loop")
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	if s.Code()[1].Target != addr {
		t.Error("backward reference not resolved at emit time")
	}
}

func TestUnresolvedLabel(t *testing.T) {
	s := NewSys()
	s.BR("nowhere")
	s.BZ(0, "alsonowhere")
	err := s.Finish()
	if err == nil {
		t.Fatal("Finish accepted unresolved labels")
	}
	for _, want := range []string{"nowhere", "alsonowhere"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestDuplicateLabelPanics(t *testing.T) {
	s := NewSys()
	s.Label("x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate label did not panic")
		}
	}()
	s.Label("x")
}

func TestMarkAttachesToNext(t *testing.T) {
	s := NewSys()
	s.Nop()
	s.Mark(isa.MarkThreadStart)
	s.MovI(0, 1)
	s.Nop()
	code := s.Code()
	if code[0].Mark != isa.MarkNone || code[2].Mark != isa.MarkNone {
		t.Error("mark leaked to the wrong instruction")
	}
	if code[1].Mark != isa.MarkThreadStart {
		t.Error("mark not attached to the next instruction")
	}
}

func TestPopLast(t *testing.T) {
	s := NewSys()
	s.Nop()
	s.BR("target")
	if !s.PopLast() {
		t.Fatal("PopLast refused")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d after PopLast", s.Len())
	}
	s.Label("target")
	s.Nop()
	if err := s.Finish(); err != nil {
		t.Errorf("dangling fixup survived PopLast: %v", err)
	}
}

func TestPopLastRefusesLabelled(t *testing.T) {
	s := NewSys()
	s.Nop()
	s.Label("here")
	s.Nop()
	if s.PopLast() {
		t.Error("PopLast removed a labelled instruction")
	}
	s2 := NewSys()
	if s2.PopLast() {
		t.Error("PopLast succeeded on empty segment")
	}
}

func TestSegmentOverflowPanics(t *testing.T) {
	s := NewSegment("tiny", 0, 8)
	s.Nop()
	s.Nop()
	defer func() {
		if recover() == nil {
			t.Error("segment overflow did not panic")
		}
	}()
	s.Nop()
}

func TestDump(t *testing.T) {
	s := NewUser()
	s.Label("entry")
	s.MovI(1, 5)
	s.Label("exit")
	s.Suspend()
	d := s.Dump()
	for _, want := range []string{"entry:", "exit:", "movi r1, 5", "suspend"} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
}

func TestAddrPanicsOnUndefined(t *testing.T) {
	s := NewSys()
	defer func() {
		if recover() == nil {
			t.Error("Addr on undefined label did not panic")
		}
	}()
	s.Addr("ghost")
}

func TestEmitterCoverage(t *testing.T) {
	// Exercise every emitter once and confirm opcode assignment.
	s := NewSys()
	s.Nop()
	s.MovI(0, 1)
	s.MovA(0, 4)
	s.MovF(0, 1)
	s.Mov(0, 1)
	s.LEA(0, 1, 2)
	s.LD(0, 1, 0)
	s.ST(1, 0, 2)
	s.LDPre(0, 1)
	s.STPost(1, 0)
	s.LDAbs(0, 4)
	s.STAbs(4, 0)
	s.Add(0, 1, 2)
	s.Sub(0, 1, 2)
	s.Mul(0, 1, 2)
	s.Div(0, 1, 2)
	s.Mod(0, 1, 2)
	s.And(0, 1, 2)
	s.Or(0, 1, 2)
	s.Xor(0, 1, 2)
	s.Shl(0, 1, 2)
	s.Shr(0, 1, 2)
	s.AddI(0, 1, 2)
	s.SubI(0, 1, 2)
	s.MulI(0, 1, 2)
	s.AndI(0, 1, 2)
	s.ShlI(0, 1, 2)
	s.ShrI(0, 1, 2)
	s.FAdd(0, 1, 2)
	s.FSub(0, 1, 2)
	s.FMul(0, 1, 2)
	s.FDiv(0, 1, 2)
	s.FNeg(0, 1)
	s.IToF(0, 1)
	s.FToI(0, 1)
	s.JMP(1)
	s.TagSet(0, 1, 2)
	s.TagGet(0, 1)
	s.MsgI(0)
	s.MsgR(1)
	s.MsgDest(1)
	s.SendW(1)
	s.SendWI(2)
	s.SendWA(4)
	s.SendE()
	s.EI()
	s.DI()
	s.Suspend()
	s.Wait()
	s.Halt()
	s.Trap(3)
	s.BRA(0)
	s.JALA(7, 0)
	want := []isa.Op{
		isa.OpNop, isa.OpMovI, isa.OpMovA, isa.OpMovF, isa.OpMov, isa.OpLEA,
		isa.OpLD, isa.OpST, isa.OpLDPre, isa.OpSTPost, isa.OpLD, isa.OpST,
		isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpMod, isa.OpAnd,
		isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr,
		isa.OpAddI, isa.OpSubI, isa.OpMulI, isa.OpAndI, isa.OpShlI, isa.OpShrI,
		isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv, isa.OpFNeg,
		isa.OpIToF, isa.OpFToI, isa.OpJMP, isa.OpTagSet, isa.OpTagGet,
		isa.OpMsgI, isa.OpMsgR, isa.OpMsgDest, isa.OpSendW, isa.OpSendWI,
		isa.OpSendWA, isa.OpSendE, isa.OpEI, isa.OpDI, isa.OpSuspend,
		isa.OpWait, isa.OpHalt, isa.OpTrap, isa.OpBR, isa.OpJAL,
	}
	code := s.Code()
	if len(code) != len(want) {
		t.Fatalf("emitted %d instructions, want %d", len(code), len(want))
	}
	for i, op := range want {
		if code[i].Op != op {
			t.Errorf("instruction %d: op = %v, want %v", i, code[i].Op, op)
		}
	}
}

// TestFinishRefusesBadRegisters checks that Finish refuses an
// instruction naming a register other than r0-r7 and rz, or writing rz
// (as a destination or an auto-increment base), and accepts rz read as
// a base or a source.
func TestFinishRefusesBadRegisters(t *testing.T) {
	for _, c := range []struct {
		emit func(s *Segment)
		want string // "" when Finish must accept
	}{
		{func(s *Segment) { s.MovI(9, 1) }, `"movi r9, 1" at 0x100004 names r9`},
		{func(s *Segment) { s.Add(0, 1, 8) }, "names r8"},
		{func(s *Segment) { s.BNZ(14, "top") }, "names r14"},
		{func(s *Segment) { s.AddI(isa.RZ, 0, 1) }, `"addi rz, r0, 1" at 0x100004 writes rz`},
		{func(s *Segment) { s.LD(isa.RZ, 1, 0) }, "writes rz"},
		{func(s *Segment) { s.LDPre(0, isa.RZ) }, "writes rz"},
		{func(s *Segment) { s.STPost(isa.RZ, 0) }, "writes rz"},
		{func(s *Segment) { s.JAL(isa.RZ, "top") }, "writes rz"},
		{func(s *Segment) { s.LDAbs(0, mem.SysDataBase) }, ""},
		{func(s *Segment) { s.ST(isa.RZ, 0, isa.RZ) }, ""},
		{func(s *Segment) { s.Add(7, isa.RZ, 7) }, ""},
		{func(s *Segment) { s.SendW(isa.RZ) }, ""},
	} {
		s := NewUser()
		s.Label("top")
		s.Nop()
		c.emit(s)
		err := s.Finish()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%v refused: %v", s.Code()[1], err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%v: Finish = %v, want an error naming %q", s.Code()[1], err, c.want)
		}
	}
}
