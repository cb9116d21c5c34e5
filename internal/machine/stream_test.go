package machine

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"jmtam/internal/asm"
	"jmtam/internal/isa"
	"jmtam/internal/mem"
	"jmtam/internal/rng"
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

// TestRandomStreamsMatchReference generates random programs over the
// opcodes whose tracing the machine does itself — LD, ST, LDPre and
// STPost with RZ and register bases, and local sends at both
// priorities — and compares the recorded streams (kind, address and
// order) and their Counts against a pure-Go model of the references,
// under unpaired and paired queue-write tracing, into one sink and
// split into a NIC sink.
func TestRandomStreamsMatchReference(t *testing.T) {
	const (
		base   = 7 // the register-base pointer
		middle = mem.SysDataBase + 0x800
		steps  = 60
	)
	highBase := queueLowBase + queueAreaSize

	runOne := func(seed uint64) bool {
		src := rng.New(seed)
		paired, split := src.Intn(2) == 1, src.Intn(2) == 1

		sys := asm.NewSys()
		sys.Halt()
		u := asm.NewUser()
		// One-instruction handlers first, so their addresses are known.
		handler := [2]uint32{u.Label("h0"), 0}
		u.Suspend()
		handler[High] = u.Label("h1")
		u.Suspend()

		var want []ref
		add := func(pri int, k trace.Kind, addr uint32) { want = append(want, ref{pri, k, addr}) }
		fetch := func() { add(Low, trace.KindFetch, u.PC()) } // the next instruction's
		queueWrites := func(pri int, at uint32, n int) {
			for i := 0; i < n; i++ {
				if !paired || i%2 == 0 {
					add(pri, trace.KindWrite, at+uint32(4*i))
				}
			}
		}
		// The boot message is buffered, then dispatched.
		queueWrites(Low, queueLowBase, 1)
		add(Low, trace.KindRead, queueLowBase)
		main := u.Label("main")
		fetch()
		u.MovA(base, middle)
		ptr := middle
		lowTail, highTail := queueLowBase+4, highBase
		var pending []uint32 // queued low-priority messages
		for i := 0; i < steps; i++ {
			rd, rs := uint8(src.Intn(5)), uint8(src.Intn(5))
			abs := middle + 0x400 + uint32(4*src.Intn(64))
			off := int64(4 * (src.Intn(16) - 8))
			fetch()
			switch src.Intn(7) {
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
			}
		}
		fetch()
		u.Suspend()
		// The queued low-priority messages dispatch after main suspends.
		for _, at := range pending {
			add(Low, trace.KindRead, at)
			add(Low, trace.KindFetch, handler[Low])
		}
		if err := sys.Finish(); err != nil {
			t.Fatal(err)
		}
		if err := u.Finish(); err != nil {
			t.Fatal(err)
		}

		m := NewMachine(mem.NewDefault(), NewCodeStore(sys.Code(), u.Code()),
			Config{PairedQueueWrites: paired, MaxInstructions: 10000})
		recs := [2]*trace.Recording{{}, nil}
		if split {
			recs[High] = &trace.Recording{}
		}
		m.SetTracer(recs[Low], recs[High])
		if err := m.Inject(Low, []word.Word{word.Ptr(main)}); err != nil {
			t.Fatal(err)
		}
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
			for _, r := range want {
				if split && r.pri != pri {
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
					seed, paired, split, pri, len(got), len(exp))
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
