package machine

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"jmtam/internal/asm"
	"jmtam/internal/isa"
	"jmtam/internal/mem"
	"jmtam/internal/queue"
	"jmtam/internal/stats"
	"jmtam/internal/trace"
	"jmtam/internal/word"
)

// buildMachine assembles user code with build and returns the machine
// plus the user segment (system segment empty).
func buildMachine(t *testing.T, build func(s *asm.Segment)) (*Machine, *asm.Segment) {
	t.Helper()
	sys := asm.NewSys()
	sys.Halt() // placeholder so the segment is non-empty
	user := asm.NewUser()
	build(user)
	if err := sys.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := user.Finish(); err != nil {
		t.Fatal(err)
	}
	m := NewMachine(mem.NewDefault(), NewCodeStore(sys.Code(), user.Code()), Config{MaxInstructions: 100000})
	return m, user
}

const resultAddr = mem.SysDataBase + 0x100

func TestALUProgram(t *testing.T) {
	m, user := buildMachine(t, func(s *asm.Segment) {
		s.Label("main")
		s.MovI(0, 6)
		s.MovI(1, 7)
		s.Mul(2, 0, 1)
		s.AddI(2, 2, 8) // 50
		s.MovI(1, 3)
		s.Div(2, 2, 1) // 16
		s.MovI(1, 5)
		s.Mod(2, 2, 1) // 1
		s.ShlI(2, 2, 4)
		s.STAbs(resultAddr, 2)
		s.Suspend()
	})
	if err := m.Inject(Low, []word.Word{word.Ptr(user.Addr("main"))}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.LoadInt(resultAddr); got != 16 {
		t.Errorf("result = %d, want 16", got)
	}
	if !m.Halted() {
		t.Error("machine not halted after quiescence")
	}
}

func TestFloatOps(t *testing.T) {
	m, user := buildMachine(t, func(s *asm.Segment) {
		s.Label("main")
		s.MovF(0, 1.5)
		s.MovF(1, 2.0)
		s.FMul(2, 0, 1) // 3.0
		s.FAdd(2, 2, 0) // 4.5
		s.FSub(2, 2, 1) // 2.5
		s.FDiv(2, 2, 1) // 1.25
		s.FNeg(2, 2)
		s.FNeg(2, 2)
		s.STAbs(resultAddr, 2)
		s.Suspend()
	})
	m.Inject(Low, []word.Word{word.Ptr(user.Addr("main"))})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.Load(resultAddr).AsFloat(); got != 1.25 {
		t.Errorf("result = %g, want 1.25", got)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	// Handler "sender" sends [target, 41] to high priority; "target"
	// reads its argument through the message base register, increments
	// it and stores it.
	m, user := buildMachine(t, func(s *asm.Segment) {
		s.Label("sender")
		s.MsgI(High)
		s.SendWALabel("target")
		s.SendWI(41)
		s.SendE()
		s.Suspend()
		s.Label("target")
		s.LD(0, isa.RMsg, 4)
		s.AddI(0, 0, 1)
		s.STAbs(resultAddr, 0)
		s.Suspend()
	})
	m.Inject(Low, []word.Word{word.Ptr(user.Addr("sender"))})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.LoadInt(resultAddr); got != 42 {
		t.Errorf("result = %d, want 42", got)
	}
}

func TestPreemptionRespectsDI(t *testing.T) {
	// The LP task runs with interrupts disabled, stores 1, opens a
	// window, then stores 3. The HP handler stores 2. With correct
	// EI/DI semantics the final sequence is 1,2,3.
	seqAddr := uint32(mem.SysDataBase + 0x200)
	m, user := buildMachine(t, func(s *asm.Segment) {
		s.Label("lp")
		s.DI()
		s.MsgI(High)
		s.SendWALabel("hp")
		s.SendE()
		s.MovI(0, 1)
		s.MovA(1, seqAddr)
		s.STPost(1, 0) // seq[0] = 1 — HP must NOT have run yet
		s.EI()
		s.DI() // window: HP runs here and appends 2
		s.MovA(1, seqAddr+8)
		s.MovI(0, 3)
		s.STPost(1, 0) // seq[2] = 3
		s.Suspend()
		s.Label("hp")
		s.MovI(0, 2)
		s.MovA(1, seqAddr+4)
		s.STPost(1, 0) // seq[1] = 2
		s.Suspend()
	})
	m.Inject(Low, []word.Word{word.Ptr(user.Addr("lp"))})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{1, 2, 3} {
		if got := m.Mem.LoadInt(seqAddr + uint32(4*i)); got != want {
			t.Errorf("seq[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestHighPriorityDoesNotInterruptItself(t *testing.T) {
	// An HP handler sends another HP message; the second must run only
	// after the first suspends.
	m, user := buildMachine(t, func(s *asm.Segment) {
		s.Label("first")
		s.MsgI(High)
		s.SendWALabel("second")
		s.SendE()
		s.MovI(0, 1)
		s.STAbs(resultAddr, 0) // then second overwrites with 2
		s.Suspend()
		s.Label("second")
		s.MovI(0, 2)
		s.STAbs(resultAddr, 0)
		s.Suspend()
	})
	m.Inject(High, []word.Word{word.Ptr(user.Addr("first"))})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.LoadInt(resultAddr); got != 2 {
		t.Errorf("result = %d, want 2 (second handler last)", got)
	}
}

func TestLowPriorityFIFO(t *testing.T) {
	// Two LP messages carrying different values run in FIFO order.
	m, user := buildMachine(t, func(s *asm.Segment) {
		s.Label("h")
		s.LD(0, isa.RMsg, 4)
		s.LDAbs(1, resultAddr)
		s.MulI(1, 1, 10)
		s.Add(1, 1, 0)
		s.STAbs(resultAddr, 1)
		s.Suspend()
	})
	h := word.Ptr(user.Addr("h"))
	m.Inject(Low, []word.Word{h, word.Int(1)})
	m.Inject(Low, []word.Word{h, word.Int(2)})
	m.Inject(Low, []word.Word{h, word.Int(3)})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.LoadInt(resultAddr); got != 123 {
		t.Errorf("result = %d, want 123 (FIFO order)", got)
	}
}

func TestAutoIncrementOps(t *testing.T) {
	m, user := buildMachine(t, func(s *asm.Segment) {
		s.Label("main")
		s.MovA(1, resultAddr)
		s.MovI(0, 7)
		s.STPost(1, 0)
		s.MovI(0, 9)
		s.STPost(1, 0) // stack: [7, 9], R1 = result+8
		s.LDPre(2, 1)  // 9
		s.LDPre(3, 1)  // 7
		s.Sub(0, 2, 3) // 2
		s.STAbs(resultAddr+16, 0)
		s.Suspend()
	})
	m.Inject(Low, []word.Word{word.Ptr(user.Addr("main"))})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.LoadInt(resultAddr + 16); got != 2 {
		t.Errorf("result = %d, want 2", got)
	}
}

func TestDivideByZeroTraps(t *testing.T) {
	m, user := buildMachine(t, func(s *asm.Segment) {
		s.Label("main")
		s.MovI(0, 1)
		s.MovI(1, 0)
		s.Div(2, 0, 1)
		s.Suspend()
	})
	m.Inject(Low, []word.Word{word.Ptr(user.Addr("main"))})
	if err := m.Run(); !errors.Is(err, ErrTrap) {
		t.Errorf("err = %v, want ErrTrap", err)
	}
}

func TestTrapInstruction(t *testing.T) {
	m, user := buildMachine(t, func(s *asm.Segment) {
		s.Label("main")
		s.Trap(5)
	})
	m.Inject(Low, []word.Word{word.Ptr(user.Addr("main"))})
	if err := m.Run(); !errors.Is(err, ErrTrap) {
		t.Errorf("err = %v, want ErrTrap", err)
	}
}

// TestInstructionLimit spins until the limit and requires exactly
// MaxInstructions executed, under Run and under a cancellable
// RunContext, whose stretches also stop at every cancellation poll.
func TestInstructionLimit(t *testing.T) {
	sys := asm.NewSys()
	sys.Halt()
	user := asm.NewUser()
	user.Label("spin")
	user.BR("spin")
	sys.Finish()
	user.Finish()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, limit := range []uint64{100, 3*CancelCheckInterval + 7} {
		for name, run := range map[string]func(m *Machine) error{
			"Run":        (*Machine).Run,
			"RunContext": func(m *Machine) error { return m.RunContext(ctx) },
		} {
			m := NewMachine(mem.NewDefault(), NewCodeStore(sys.Code(), user.Code()), Config{MaxInstructions: limit})
			m.Inject(Low, []word.Word{word.Ptr(user.Addr("spin"))})
			want := fmt.Sprintf("machine trap: instruction limit %d exceeded", limit)
			if err := run(m); !errors.Is(err, ErrTrap) || err.Error() != want {
				t.Errorf("%s, limit %d: err = %v, want %q", name, limit, err, want)
			}
			if m.Instructions() != limit {
				t.Errorf("%s: executed %d instructions, want exactly the limit %d", name, m.Instructions(), limit)
			}
		}
	}
}

// TestTrapMidStretch faults in the middle of a stretch at each
// priority and pins the trap text, the faulting ip and the instruction
// count, under Run and under a Step loop.
func TestTrapMidStretch(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(s *asm.Segment)
		want  string
	}{
		{"low divide", func(s *asm.Segment) {
			s.Label("main")
			s.MovI(0, 1)
			s.MovI(1, 0)
			s.AddI(0, 0, 2)
			s.Div(2, 0, 1)
			s.MovI(3, 4)
			s.Suspend()
		}, "machine trap: divide by zero (node 0, low ip=0x10000c high ip=0x0 after 4 instructions)"},
		{"high load", func(s *asm.Segment) {
			s.Label("main")
			s.MovI(0, 1)
			s.MsgI(High)
			s.SendWALabel("hp")
			s.SendE() // the handler preempts here
			s.MovI(1, 2)
			s.Suspend()
			s.Label("hp")
			s.MovI(2, 3)
			s.AddI(2, 2, 1)
			s.LDAbs(3, mem.TopOfMemory)
			s.Suspend()
		}, "machine trap: mem: load beyond segment at 0x8000000 (node 0, low ip=0x100010 high ip=0x100020 after 7 instructions)"},
	} {
		for name, run := range map[string]func(m *Machine) error{
			"Run": (*Machine).Run,
			"Step": func(m *Machine) (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = m.Fault(r)
					}
				}()
				for {
					if ok, err := m.Step(); err != nil || !ok {
						return err
					}
				}
			},
		} {
			m, user := buildMachine(t, c.build)
			m.Inject(Low, []word.Word{word.Ptr(user.Addr("main"))})
			if err := run(m); err == nil || err.Error() != c.want {
				t.Errorf("%s under %s: err = %v, want %q", c.name, name, err, c.want)
			}
		}
	}
}

func TestWaitHaltsWhenQuiescent(t *testing.T) {
	m, user := buildMachine(t, func(s *asm.Segment) {
		s.Label("idle")
		s.Wait()
		s.BR("idle")
	})
	m.Boot(user.Addr("idle"))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !m.Halted() {
		t.Error("WAIT did not halt a quiescent machine")
	}
	if m.Instructions() == 0 {
		t.Error("no instructions executed")
	}
}

func TestWaitServicesPendingWork(t *testing.T) {
	// An idle LP loop with an EI window must let a pending HP message
	// run before the machine halts.
	m, user := buildMachine(t, func(s *asm.Segment) {
		s.Label("idle")
		s.EI()
		s.DI()
		s.Wait()
		s.BR("idle")
		s.Label("hp")
		s.MovI(0, 77)
		s.STAbs(resultAddr, 0)
		s.Suspend()
	})
	m.Inject(High, []word.Word{word.Ptr(user.Addr("hp"))})
	m.Boot(user.Addr("idle"))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.LoadInt(resultAddr); got != 77 {
		t.Errorf("HP handler never ran: result = %d", got)
	}
}

func TestTracerCounts(t *testing.T) {
	m, user := buildMachine(t, func(s *asm.Segment) {
		s.Label("main")
		s.MovI(0, 1)           // fetch
		s.STAbs(resultAddr, 0) // fetch + write
		s.LDAbs(1, resultAddr) // fetch + read
		s.Suspend()            // fetch
	})
	tr := &trace.Recording{}
	m.SetTracer(tr, nil)
	m.Inject(Low, []word.Word{word.Ptr(user.Addr("main"))})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Buffering the one-word message writes the queue; dispatch reads
	// the header word.
	if tr.TotalFetches() != 4 || tr.TotalReads() != 2 || tr.TotalWrites() != 2 || tr.Len() != 8 {
		t.Errorf("counts = %+v over %d refs, want fetches=4 reads=2 writes=2", tr.Counts, tr.Len())
	}
	if m.Instructions() != 4 {
		t.Errorf("instructions = %d, want 4", m.Instructions())
	}
}

func TestQueueWriteTracing(t *testing.T) {
	sys := asm.NewSys()
	sys.Halt()
	user := asm.NewUser()
	user.Label("main")
	user.Suspend()
	sys.Finish()
	user.Finish()
	m := NewMachine(mem.NewDefault(), NewCodeStore(sys.Code(), user.Code()),
		Config{})
	tr := &trace.Recording{}
	m.SetTracer(tr, nil)
	// A three-word injection buffers three words into queue memory.
	m.Inject(Low, []word.Word{word.Ptr(user.Addr("main")), word.Int(1), word.Int(2)})
	if tr.TotalWrites() != 3 || tr.Len() != 3 {
		t.Errorf("queue buffering traced %d writes in %d refs, want 3", tr.TotalWrites(), tr.Len())
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPairedQueueWriteTracing(t *testing.T) {
	sys := asm.NewSys()
	sys.Halt()
	user := asm.NewUser()
	user.Label("main")
	user.Suspend()
	sys.Finish()
	user.Finish()
	// With the MDP's two-word-per-cycle queue write-through enabled,
	// buffering an arriving message charges one traced write per word
	// PAIR: a 3-word injection costs 2, a 4-word injection also 2.
	for _, tc := range []struct {
		words  int
		writes int
	}{{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}} {
		m := NewMachine(mem.NewDefault(), NewCodeStore(sys.Code(), user.Code()),
			Config{PairedQueueWrites: true})
		tr := &trace.Recording{}
		m.SetTracer(tr, nil)
		ws := []word.Word{word.Ptr(user.Addr("main"))}
		for len(ws) < tc.words {
			ws = append(ws, word.Int(int64(len(ws))))
		}
		m.Inject(Low, ws)
		if tr.TotalWrites() != uint64(tc.writes) || tr.Len() != tc.writes {
			t.Errorf("%d-word injection traced %d queue writes in %d refs, want %d",
				tc.words, tr.TotalWrites(), tr.Len(), tc.writes)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQueueOverflowSurfacesAsError(t *testing.T) {
	sys := asm.NewSys()
	sys.Halt()
	user := asm.NewUser()
	user.Label("flood")
	user.Label("loop")
	user.MsgI(High)
	user.SendWALabel("sink")
	user.SendE()
	user.BR("loop")
	user.Label("sink")
	user.Suspend()
	sys.Finish()
	user.Finish()
	m := NewMachine(mem.NewDefault(), NewCodeStore(sys.Code(), user.Code()),
		Config{QueueCapWords: 16, MaxInstructions: 100000})
	// Keep interrupts disabled so the HP queue can only fill.
	m.Boot(user.Addr("flood"))
	if err := m.Run(); !errors.Is(err, ErrTrap) || !errors.Is(err, queue.ErrOverflow) {
		t.Errorf("err = %v, want queue-overflow trap", err)
	}
}

func TestObserverMarks(t *testing.T) {
	sys := asm.NewSys()
	sys.Halt()
	user := asm.NewUser()
	user.Label("h")
	user.Mark(isa.MarkInletStart)
	user.MovI(0, 1)
	user.Mark(isa.MarkThreadStart)
	user.MovI(0, 2)
	user.Suspend()
	sys.Finish()
	user.Finish()
	m := NewMachine(mem.NewDefault(), NewCodeStore(sys.Code(), user.Code()), Config{})
	var g stats.Granularity
	m.SetObserver(&g)
	m.Inject(Low, []word.Word{word.Ptr(user.Addr("h"))})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if g.Threads != 1 || g.Inlets != 1 || g.Dispatches != [2]uint64{1, 0} || g.Activations != 0 {
		t.Errorf("threads=%d inlets=%d dispatches=%v activations=%d, want 1, 1, [1 0], 0",
			g.Threads, g.Inlets, g.Dispatches, g.Activations)
	}
}

func TestFetchOutsideCodePanicsAsTrap(t *testing.T) {
	m, _ := buildMachine(t, func(s *asm.Segment) {
		s.Label("main")
		s.Nop()
	})
	m.Inject(Low, []word.Word{word.Ptr(0x00ffffff)}) // bogus handler
	if err := m.Run(); !errors.Is(err, ErrTrap) {
		t.Errorf("err = %v, want fetch trap", err)
	}
}
