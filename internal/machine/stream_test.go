package machine

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"jmtam/internal/asm"
	"jmtam/internal/isa"
	"jmtam/internal/mem"
	"jmtam/internal/queue"
	"jmtam/internal/rng"
	"jmtam/internal/stats"
	"jmtam/internal/trace"
	"jmtam/internal/word"
)

// ref is one reference of the expected stream: the priority whose sink
// records it, its kind and its address.
type ref struct {
	pri  int
	kind trace.Kind
	addr uint32
}

// randomProgram is one program of the random stream generator.
type randomProgram struct {
	sys, user     *asm.Segment
	main          uint32 // the boot message's handler
	paired, split bool   // queue-write pairing, and a NIC sink for high priority
	want          []ref  // the references it makes, in order; nil with windows
}

// genProgram generates the random program of seed over the opcodes
// whose tracing the machine does itself: LD, ST, LDPre and STPost with
// rz and register bases, and local sends at both priorities to
// one-instruction handlers. With windows it also closes and reopens
// the interrupt window (DI, EI), so a high-priority send made while it
// is closed preempts the task at the next EI; the reference model
// assumes an open window and is left nil.
func genProgram(seed uint64, windows bool) randomProgram {
	const (
		base   = 7 // the register-base pointer
		middle = mem.SysDataBase + 0x800
		steps  = 60
	)
	highBase := queueLowBase + queueAreaSize
	src := rng.New(seed)
	p := randomProgram{sys: asm.NewSys(), user: asm.NewUser()}
	p.paired, p.split = src.Intn(2) == 1, src.Intn(2) == 1
	p.sys.Halt()
	u := p.user
	// One-instruction handlers first, so their addresses are known. The
	// marks feed the granularity statistics and make no references.
	handler := [2]uint32{u.Label("h0"), 0}
	u.Mark(isa.MarkThreadStart)
	u.Suspend()
	handler[High] = u.Label("h1")
	u.Mark(isa.MarkInletStart)
	u.Suspend()

	add := func(pri int, k trace.Kind, addr uint32) { p.want = append(p.want, ref{pri, k, addr}) }
	fetch := func() { add(Low, trace.KindFetch, u.PC()) } // the next instruction's
	queueWrites := func(pri int, at uint32, n int) {
		for i := 0; i < n; i++ {
			if !p.paired || i%2 == 0 {
				add(pri, trace.KindWrite, at+uint32(4*i))
			}
		}
	}
	// The boot message is buffered, then dispatched.
	queueWrites(Low, queueLowBase, 1)
	add(Low, trace.KindRead, queueLowBase)
	p.main = u.Label("main")
	fetch()
	u.MovA(base, middle)
	ptr := middle
	lowTail, highTail := queueLowBase+4, highBase
	var pending []uint32 // queued low-priority messages
	ops, enabled := 7, true
	if windows {
		ops = 8
	}
	for i := 0; i < steps; i++ {
		rd, rs := uint8(src.Intn(5)), uint8(src.Intn(5))
		abs := middle + 0x400 + uint32(4*src.Intn(64))
		off := int64(4 * (src.Intn(16) - 8))
		fetch()
		switch src.Intn(ops) {
		case 0:
			u.LD(rd, isa.RZ, int64(abs))
			add(Low, trace.KindRead, abs)
		case 1:
			u.ST(isa.RZ, int64(abs), rs)
			add(Low, trace.KindWrite, abs)
		case 2:
			u.LD(rd, base, off)
			add(Low, trace.KindRead, uint32(int64(ptr)+off))
		case 3:
			u.ST(base, off, rs)
			add(Low, trace.KindWrite, uint32(int64(ptr)+off))
		case 4:
			u.LDPre(rd, base)
			ptr -= 4
			add(Low, trace.KindRead, ptr)
		case 5:
			u.STPost(base, rs)
			add(Low, trace.KindWrite, ptr)
			ptr += 4
		case 6:
			pri, words := src.Intn(2), 1+src.Intn(5)
			u.MsgI(int64(pri))
			fetch()
			u.SendWA(handler[pri])
			for w := 1; w < words; w++ {
				fetch()
				if w%2 == 0 {
					u.SendW(rs)
				} else {
					u.SendWI(int64(w))
				}
			}
			fetch()
			u.SendE()
			if pri == High {
				// Interrupts are enabled: the handler runs at once.
				queueWrites(High, highTail, words)
				add(High, trace.KindRead, highTail)
				add(High, trace.KindFetch, handler[High])
				highTail += uint32(4 * words)
			} else {
				queueWrites(Low, lowTail, words)
				pending = append(pending, lowTail)
				lowTail += uint32(4 * words)
			}
		case 7:
			if enabled {
				u.DI()
			} else {
				u.EI()
			}
			enabled = !enabled
		}
	}
	fetch()
	u.Suspend()
	// The queued low-priority messages dispatch after main suspends.
	for _, at := range pending {
		add(Low, trace.KindRead, at)
		add(Low, trace.KindFetch, handler[Low])
	}
	if err := errors.Join(p.sys.Finish(), u.Finish()); err != nil {
		panic(err)
	}
	if windows {
		p.want = nil
	}
	return p
}

// boot builds a machine for the program with its recordings attached
// and injects the boot message. Its memory holds only the runtime
// globals, which the scratch words lie in, and the two queues.
func (p randomProgram) boot(g *stats.Granularity) (*Machine, [2]*trace.Recording) {
	m := NewMachine(mem.New(GlobalsWords+2*queue.DefaultCapWords, 0, 0),
		NewCodeStore(p.sys.Code(), p.user.Code()),
		Config{PairedQueueWrites: p.paired, MaxInstructions: 10000})
	recs := [2]*trace.Recording{{}, nil}
	if p.split {
		recs[High] = &trace.Recording{}
	}
	m.SetTracer(recs[Low], recs[High])
	m.SetObserver(g)
	if err := m.Inject(Low, []word.Word{word.Ptr(p.main)}); err != nil {
		panic(err)
	}
	return m, recs
}

// TestRandomStreamsMatchReference runs generated programs (genProgram,
// without interrupt windows) and compares the recorded streams (kind,
// address and order) and their Counts against the generator's pure-Go
// model of the references, under unpaired and paired queue-write
// tracing, into one sink and split into a NIC sink.
func TestRandomStreamsMatchReference(t *testing.T) {
	runOne := func(seed uint64) bool {
		p := genProgram(seed, false)
		m, recs := p.boot(nil)
		if err := m.Run(); err != nil {
			t.Logf("seed %#x: %v", seed, err)
			return false
		}
		for pri, rec := range recs {
			if rec == nil {
				continue
			}
			var exp []ref
			var counts trace.Counts
			for _, r := range p.want {
				if p.split && r.pri != pri {
					continue
				}
				exp = append(exp, ref{0, r.kind, r.addr})
				cls := mem.Classify(r.addr)
				switch r.kind {
				case trace.KindFetch:
					counts.Fetches[cls]++
				case trace.KindRead:
					counts.Reads[cls]++
				default:
					counts.Writes[cls]++
				}
			}
			var got []ref
			rec.Do(func(k trace.Kind, addr uint32) { got = append(got, ref{0, k, addr}) })
			if !slices.Equal(got, exp) {
				t.Logf("seed %#x (paired=%v split=%v) pri %d: stream of %d refs differs from the %d expected",
					seed, p.paired, p.split, pri, len(got), len(exp))
				for i := range min(len(got), len(exp)) {
					if got[i] != exp[i] {
						t.Logf("  first difference at %d: got %+v, want %+v", i, got[i], exp[i])
						break
					}
				}
				return false
			}
			if rec.Counts != counts {
				t.Logf("seed %#x pri %d: counts %+v, want %+v", seed, pri, rec.Counts, counts)
				return false
			}
		}
		return true
	}
	if err := quick.Check(runOne, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// FuzzStepMatchesRun runs each generated program (genProgram, with
// interrupt windows, so high-priority handlers preempt the task in the
// middle of a stretch) once through RunContext, whose stretches run
// until an instruction that can change the priority decision, and once
// through a Step loop, one instruction per stretch. Both must record
// the same streams and Counts and end with the same registers, scratch
// words, instruction counts, opcode counts and granularity statistics.
func FuzzStepMatchesRun(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 0x5eed, 0xdeadbeef} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		p := genProgram(seed, true)
		var runG, stepG stats.Granularity
		run, runRecs := p.boot(&runG)
		if err := run.RunContext(context.Background()); err != nil {
			t.Fatalf("RunContext: %v", err)
		}
		step, stepRecs := p.boot(&stepG)
		for {
			ok, err := step.Step()
			if err != nil {
				t.Fatalf("Step: %v", err)
			}
			if !ok {
				break
			}
		}
		for pri := range runRecs {
			a, b := runRecs[pri], stepRecs[pri]
			if a == nil {
				continue
			}
			if !slices.Equal(recordingWords(a), recordingWords(b)) || a.Counts != b.Counts {
				t.Errorf("pri %d recording: RunContext %d refs %+v, Step %d refs %+v",
					pri, a.Len(), a.Counts, b.Len(), b.Counts)
			}
		}
		if run.regs != step.regs {
			t.Errorf("registers: RunContext %v, Step %v", run.regs, step.regs)
		}
		for addr := mem.SysDataBase + 0x400; addr < mem.SysDataBase+0x1000; addr += mem.WordBytes {
			if a, b := run.Mem.Load(addr), step.Mem.Load(addr); a != b {
				t.Errorf("word at %#x: RunContext %v, Step %v", addr, a, b)
			}
		}
		if run.Instructions() != step.Instructions() || run.HighInstructions() != step.HighInstructions() {
			t.Errorf("instructions: RunContext %d (%d high), Step %d (%d high)",
				run.Instructions(), run.HighInstructions(), step.Instructions(), step.HighInstructions())
		}
		if run.OpCounts() != step.OpCounts() {
			t.Errorf("opcode counts: RunContext %v, Step %v", run.OpCounts(), step.OpCounts())
		}
		if !reflect.DeepEqual(runG, stepG) {
			t.Errorf("granularity: RunContext %+v, Step %+v", runG, stepG)
		}
	})
}

// recordingWords returns a recording's packed words in order.
func recordingWords(r *trace.Recording) []uint32 {
	var ws []uint32
	r.Do(func(k trace.Kind, addr uint32) { ws = append(ws, trace.Encode(k, addr)) })
	return ws
}

// TestLimitReachedByHalt pins the instruction limit's precedence: when
// the last allowed instruction is a HALT, Run, RunContext and Step all
// report the limit, as they always have; one more allowed instruction
// and the run ends cleanly.
func TestLimitReachedByHalt(t *testing.T) {
	sys, user := asm.NewSys(), asm.NewUser()
	sys.Halt()
	main := user.Label("main")
	user.MovI(0, 1)
	user.Halt()
	if err := errors.Join(sys.Finish(), user.Finish()); err != nil {
		t.Fatal(err)
	}
	build := func(limit uint64) *Machine {
		m := NewMachine(mem.NewDefault(), NewCodeStore(sys.Code(), user.Code()), Config{MaxInstructions: limit})
		if err := m.Inject(Low, []word.Word{word.Ptr(main)}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runs := map[string]func(m *Machine) error{
		"Run":        (*Machine).Run,
		"RunContext": func(m *Machine) error { return m.RunContext(ctx) },
		"Step": func(m *Machine) error {
			for {
				ok, err := m.Step()
				if err != nil || !ok {
					return err
				}
			}
		},
	}
	for name, run := range runs {
		m := build(2)
		err := run(m)
		if !errors.Is(err, ErrTrap) || !strings.Contains(err.Error(), "instruction limit 2 exceeded") {
			t.Errorf("%s: err = %v, want the instruction-limit trap", name, err)
		}
		if !m.Halted() || m.Instructions() != 2 {
			t.Errorf("%s: halted=%v after %d instructions, want halted after 2", name, m.Halted(), m.Instructions())
		}
		if err := run(build(3)); err != nil {
			t.Errorf("%s with room to spare: %v", name, err)
		}
	}
}
