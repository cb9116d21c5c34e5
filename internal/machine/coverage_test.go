package machine

import (
	"errors"
	"testing"

	"jmtam/internal/asm"
	"jmtam/internal/isa"
	"jmtam/internal/mem"
	"jmtam/internal/word"
)

// TestEveryOpcodeExecutes drives one program through every opcode the
// ALU/branch/tag groups define and checks a digest of the results, so
// the interpreter's full switch is exercised under test.
func TestEveryOpcodeExecutes(t *testing.T) {
	const out = mem.SysDataBase + 0x800
	m, user := buildMachine(t, func(s *asm.Segment) {
		s.Label("main")
		s.Nop()
		s.MovI(0, 12)
		s.MovA(1, 0x40)
		s.MovF(2, 1.5)
		s.Mov(3, 0)     // 12
		s.LEA(4, 1, 8)  // 0x48
		s.Div(3, 3, 0)  // 1
		s.Mod(3, 0, 3)  // 0... 12 % 1 = 0
		s.Or(3, 3, 0)   // 12
		s.Xor(3, 3, 0)  // 0
		s.AddI(3, 3, 5) // 5
		s.AndI(3, 3, 6) // 4
		s.MovI(1, 2)
		s.Shl(3, 3, 1)  // 16
		s.Shr(3, 3, 1)  // 4
		s.And(3, 3, 0)  // 4
		s.MulI(3, 3, 3) // 12
		s.SubI(3, 3, 2) // 10
		s.Sub(3, 3, 1)  // 8
		// Floats.
		s.FSub(2, 2, 2) // 0.0
		s.MovF(2, 2.0)
		s.FDiv(2, 2, 2) // 1.0
		s.FNeg(2, 2)    // -1.0
		s.IToF(1, 3)    // 8.0
		s.FAdd(2, 2, 1) // 7.0
		s.FMul(2, 2, 1) // 56.0
		s.FToI(1, 2)    // 56
		// Branches (all taken and not-taken paths).
		s.BLE(3, 1, "le") // 8 <= 56: taken
		s.MovI(3, 0)
		s.Label("le")
		s.BGT(1, 3, "gt") // 56 > 8: taken
		s.MovI(3, 0)
		s.Label("gt")
		s.FBLT(2, 1, "fl") // 56.0 < 56: not taken
		s.AddI(3, 3, 1)    // 9
		s.Label("fl")
		s.FBLE(1, 2, "fle") // taken
		s.MovI(3, 0)
		s.Label("fle")
		// Tags.
		s.TagSet(5, 3, uint8(word.TagPtr))
		s.TagGet(7, 5) // tag ptr = 2
		s.BTag(5, uint8(word.TagPtr), "isptr")
		s.MovI(3, 0)
		s.Label("isptr")
		s.Add(3, 3, 7) // 9 + 2 = 11
		s.ST(15, int64(out), 3)
		s.Suspend()
	})
	m.Inject(Low, []word.Word{word.Ptr(user.Addr("main"))})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.LoadInt(out); got != 11 {
		t.Errorf("digest = %d, want 11", got)
	}
	counts := m.OpCounts()
	for _, op := range []isa.Op{isa.OpNop, isa.OpDiv, isa.OpMod, isa.OpOr,
		isa.OpXor, isa.OpShl, isa.OpShr, isa.OpFDiv, isa.OpFNeg,
		isa.OpIToF, isa.OpFToI, isa.OpTagSet, isa.OpTagGet, isa.OpBTag,
		isa.OpFBLT, isa.OpFBLE, isa.OpBLE, isa.OpBGT, isa.OpLEA} {
		if counts[op] == 0 {
			t.Errorf("opcode %v never executed", op)
		}
	}
}

func TestHaltInstruction(t *testing.T) {
	m, user := buildMachine(t, func(s *asm.Segment) {
		s.Label("main")
		s.Halt()
		s.MovI(0, 1) // unreachable
	})
	m.Inject(Low, []word.Word{word.Ptr(user.Addr("main"))})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !m.Halted() || m.Instructions() != 1 {
		t.Errorf("halted=%v instrs=%d", m.Halted(), m.Instructions())
	}
}

func TestMessageProtocolFaults(t *testing.T) {
	cases := map[string]func(s *asm.Segment){
		"sendw without msg": func(s *asm.Segment) {
			s.Label("main")
			s.SendW(0)
		},
		"sende without msg": func(s *asm.Segment) {
			s.Label("main")
			s.SendE()
		},
		"msgdest without msg": func(s *asm.Segment) {
			s.Label("main")
			s.MsgDest(0)
		},
		"bad priority": func(s *asm.Segment) {
			s.Label("main")
			s.MsgI(7)
		},
		"remote without router": func(s *asm.Segment) {
			s.Label("main")
			s.MovI(0, 3)
			s.MsgI(Low)
			s.MsgDest(0)
			s.SendWI(1)
			s.SendE()
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			m, user := buildMachine(t, build)
			m.Inject(Low, []word.Word{word.Ptr(user.Addr("main"))})
			if err := m.Run(); !errors.Is(err, ErrTrap) {
				t.Errorf("err = %v, want trap", err)
			}
		})
	}
}

func TestStepAndIdle(t *testing.T) {
	m, user := buildMachine(t, func(s *asm.Segment) {
		s.Label("main")
		s.MovI(0, 1)
		s.Suspend()
	})
	// Idle before any message.
	if !m.Idle() {
		t.Error("fresh machine not idle")
	}
	if ok, err := m.Step(); ok || err != nil {
		t.Errorf("Step on idle machine: %v %v", ok, err)
	}
	m.Inject(Low, []word.Word{word.Ptr(user.Addr("main"))})
	if m.Idle() {
		t.Error("machine with pending message reported idle")
	}
	steps := 0
	for {
		ok, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		steps++
	}
	if steps != 2 {
		t.Errorf("executed %d steps, want 2", steps)
	}
	if m.Node() != 0 {
		t.Errorf("default node = %d", m.Node())
	}
}

func TestCodeStoreAccessors(t *testing.T) {
	sys := asm.NewSys()
	sys.Halt()
	user := asm.NewUser()
	user.Nop()
	user.Nop()
	sys.Finish()
	user.Finish()
	cs := NewCodeStore(sys.Code(), user.Code())
	if cs.SysWords() != 1 || cs.UserWords() != 2 {
		t.Errorf("sizes = %d/%d", cs.SysWords(), cs.UserWords())
	}
	if in, cls := cs.Fetch(mem.UserCodeBase + 4); in == nil || in.Op != isa.OpNop || cls != mem.ClassUserCode {
		t.Error("fetch decoded wrong instruction")
	}
	if in, cls := cs.Fetch(mem.SysCodeBase); in == nil || in.Op != isa.OpHalt || cls != mem.ClassSysCode {
		t.Error("fetch decoded wrong system instruction")
	}
	for _, addr := range []uint32{mem.SysCodeBase + 4, mem.UserCodeBase + 8, mem.SysDataBase} {
		if in, _ := cs.Fetch(addr); in != nil {
			t.Errorf("fetch at %#x outside the code returned %v", addr, in.Op)
		}
	}
}

func TestSetRegAndQueueAccessor(t *testing.T) {
	m, _ := buildMachine(t, func(s *asm.Segment) {
		s.Label("main")
		s.Suspend()
	})
	m.SetReg(Low, 3, word.Int(9))
	if m.Queue(Low) == nil || m.Queue(High) == nil {
		t.Error("queue accessors nil")
	}
	if m.Queue(Low).CapWords() <= 0 {
		t.Error("queue capacity not positive")
	}
	m.SetTracer(nil, nil) // records nothing
	m.SetObserver(nil)    // a fresh Granularity
	m.Inject(Low, []word.Word{word.Ptr(mem.UserCodeBase)})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}
