package core

import (
	"strings"
	"testing"

	"jmtam/internal/isa"
	"jmtam/internal/word"
)

// buildOne wraps Build for misuse tests, returning the error.
func buildOne(p *Program) error {
	_, err := Build(ImplMD, p, Options{})
	return err
}

// minimal returns a valid single-codeblock program whose bodies can be
// overridden by the caller before building.
func minimalProgram(cb *Codeblock, start *Inlet) *Program {
	return &Program{
		Name:   "misuse",
		Blocks: []*Codeblock{cb},
		Setup: func(h *Host) error {
			f := h.AllocFrame(cb)
			return h.Start(start, f, word.Int(0))
		},
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		prog *Program
		want string
	}{
		{
			"no name",
			&Program{},
			"without name",
		},
		{
			"no setup",
			&Program{Name: "x"},
			"missing Setup",
		},
		{
			"count mismatch",
			&Program{Name: "x", Setup: func(*Host) error { return nil },
				Blocks: []*Codeblock{{Name: "cb", NumCounts: 2, InitCounts: []int64{1}}}},
			"InitCounts",
		},
	}
	for _, c := range cases {
		err := buildOne(c.prog)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

func TestDuplicateCodeblockNames(t *testing.T) {
	mk := func() *Codeblock {
		cb := &Codeblock{Name: "dup"}
		t0 := cb.AddThread("t", -1, func(b *Body) { b.Stop() })
		cb.AddInlet("i", func(b *Body) { b.PostEnd(t0) })
		return cb
	}
	p := &Program{Name: "x", Blocks: []*Codeblock{mk(), mk()},
		Setup: func(*Host) error { return nil }}
	if err := buildOne(p); err == nil || !strings.Contains(err.Error(), "duplicate codeblock") {
		t.Errorf("err = %v", err)
	}
}

func TestSyncDirectOnlyRejected(t *testing.T) {
	cb := &Codeblock{Name: "cb", NumCounts: 1, InitCounts: []int64{2}}
	tt := cb.AddThread("t", 0, func(b *Body) { b.Stop() })
	tt.DirectOnly = true
	cb.AddInlet("i", func(b *Body) { b.PostEnd(tt) })
	p := minimalProgram(cb, cb.inlets[0])
	if err := buildOne(p); err == nil || !strings.Contains(err.Error(), "DirectOnly") {
		t.Errorf("err = %v", err)
	}
}

func TestForkInInletRejected(t *testing.T) {
	cb := &Codeblock{Name: "cb"}
	tt := cb.AddThread("t", -1, func(b *Body) { b.Stop() })
	start := cb.AddInlet("start", func(b *Body) {
		b.Fork(tt) // Fork is a thread-body macro
		b.EndInlet()
	})
	if err := buildOne(minimalProgram(cb, start)); err == nil ||
		!strings.Contains(err.Error(), "Fork used outside a thread") {
		t.Errorf("err = %v", err)
	}
}

func TestPostInThreadRejected(t *testing.T) {
	cb := &Codeblock{Name: "cb"}
	var t2 *Thread
	t2 = cb.AddThread("t2", -1, func(b *Body) { b.Stop() })
	cb.AddThread("t1", -1, func(b *Body) {
		b.Post(t2) // Post is an inlet-body macro
		b.Stop()
	})
	start := cb.AddInlet("start", func(b *Body) { b.PostEnd(cb.threads[1]) })
	if err := buildOne(minimalProgram(cb, start)); err == nil ||
		!strings.Contains(err.Error(), "Post used outside an inlet") {
		t.Errorf("err = %v", err)
	}
}

func TestEmissionAfterTerminationRejected(t *testing.T) {
	cb := &Codeblock{Name: "cb"}
	tt := cb.AddThread("t", -1, func(b *Body) {
		b.Stop()
		b.Stop() // body already terminated
	})
	start := cb.AddInlet("start", func(b *Body) { b.PostEnd(tt) })
	if err := buildOne(minimalProgram(cb, start)); err == nil ||
		!strings.Contains(err.Error(), "after body terminated") {
		t.Errorf("err = %v", err)
	}
}

func TestUnterminatedBodyRejected(t *testing.T) {
	cb := &Codeblock{Name: "cb"}
	tt := cb.AddThread("t", -1, func(b *Body) {
		b.MovI(0, 1) // never stops
	})
	start := cb.AddInlet("start", func(b *Body) { b.PostEnd(tt) })
	if err := buildOne(minimalProgram(cb, start)); err == nil ||
		!strings.Contains(err.Error(), "does not terminate") {
		t.Errorf("err = %v", err)
	}
}

// TestBadRegisterRejected checks that a body naming a register outside
// r0-r7 and rz, or writing rz, fails Compile under every backend
// instead of trapping when it runs.
func TestBadRegisterRejected(t *testing.T) {
	for _, c := range []struct {
		emit func(b *Body)
		want string
	}{
		{func(b *Body) { b.MovI(9, 1) }, "names r9"},
		{func(b *Body) { b.AddI(isa.RZ, 0, 1) }, "writes rz"},
	} {
		for _, be := range Backends() {
			cb := &Codeblock{Name: "cb"}
			tt := cb.AddThread("t", -1, func(b *Body) {
				c.emit(b)
				b.Stop()
			})
			start := cb.AddInlet("start", func(b *Body) { b.PostEnd(tt) })
			_, err := Compile(be.Impl, minimalProgram(cb, start), Options{})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: Compile err = %v, want one naming %q", be.Name, err, c.want)
			}
		}
	}
}

func TestDirectOnlyFromThreadRejected(t *testing.T) {
	cb := &Codeblock{Name: "cb"}
	var direct *Thread
	direct = cb.AddThread("direct", -1, func(b *Body) { b.Stop() })
	direct.DirectOnly = true
	cb.AddThread("forker", -1, func(b *Body) {
		b.ForkEnd(direct)
	})
	start := cb.AddInlet("start", func(b *Body) { b.PostEnd(cb.threads[1]) })
	if err := buildOne(minimalProgram(cb, start)); err == nil ||
		!strings.Contains(err.Error(), "enabled from a thread") {
		t.Errorf("err = %v", err)
	}
}

func TestDirectOnlyMultiplePostsRejected(t *testing.T) {
	cb := &Codeblock{Name: "cb"}
	var direct *Thread
	direct = cb.AddThread("direct", -1, func(b *Body) { b.Stop() })
	direct.DirectOnly = true
	cb.AddInlet("i1", func(b *Body) { b.PostEnd(direct) })
	start := cb.AddInlet("start", func(b *Body) { b.PostEnd(direct) })
	if err := buildOne(minimalProgram(cb, start)); err == nil ||
		!strings.Contains(err.Error(), "multiple sites") {
		t.Errorf("err = %v", err)
	}
}

func TestCrossCodeblockForkRejected(t *testing.T) {
	other := &Codeblock{Name: "other"}
	to := other.AddThread("t", -1, func(b *Body) { b.Stop() })
	other.AddInlet("i", func(b *Body) { b.PostEnd(to) })

	cb := &Codeblock{Name: "cb"}
	tt := cb.AddThread("t", -1, func(b *Body) {
		b.ForkEnd(to) // thread of another codeblock
	})
	start := cb.AddInlet("start", func(b *Body) { b.PostEnd(tt) })
	p := minimalProgram(cb, start)
	p.Blocks = append(p.Blocks, other)
	if err := buildOne(p); err == nil ||
		!strings.Contains(err.Error(), "enabled from codeblock") {
		t.Errorf("err = %v", err)
	}
}

func TestSlotOutOfRangeRejected(t *testing.T) {
	cb := &Codeblock{Name: "cb", NumSlots: 2}
	tt := cb.AddThread("t", -1, func(b *Body) {
		b.LDSlot(0, 5)
		b.Stop()
	})
	start := cb.AddInlet("start", func(b *Body) { b.PostEnd(tt) })
	if err := buildOne(minimalProgram(cb, start)); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Errorf("err = %v", err)
	}
}

func TestResultIndexRange(t *testing.T) {
	cb := &Codeblock{Name: "cb"}
	tt := cb.AddThread("t", -1, func(b *Body) {
		b.StoreResult(ResultWords, 0)
		b.Stop()
	})
	start := cb.AddInlet("start", func(b *Body) { b.PostEnd(tt) })
	if err := buildOne(minimalProgram(cb, start)); err == nil ||
		!strings.Contains(err.Error(), "result index") {
		t.Errorf("err = %v", err)
	}
}

func TestSimRunTwiceFails(t *testing.T) {
	sim, err := Build(ImplMD, sumLoopProgram(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err == nil {
		t.Error("second Run did not fail")
	}
}

func TestDumpListsRuntimeRoutines(t *testing.T) {
	sim, err := Build(ImplAM, sumLoopProgram(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := sim.RT.Sys.Dump()
	for _, label := range []string{"sys.falloc:", "sys.iread:", "sys.iwrite:", "sys.post:", "sys.sched:"} {
		if !strings.Contains(d, label) {
			t.Errorf("system dump missing %s", label)
		}
	}
	md, err := Build(ImplMD, sumLoopProgram(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(md.RT.Sys.Dump(), "sys.post:") {
		t.Error("MD backend emitted the AM post routine")
	}
}

// TestBackendCodeSizes verifies the §2.3 control-locality claim at the
// static level: for the same program, the MD backend's user code places
// each inlet next to the thread it enables, while the AM backend's extra
// system machinery (post routine, scheduler) makes its system segment
// larger.
func TestBackendCodeSizes(t *testing.T) {
	am, err := Build(ImplAM, callProgram(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	md, err := Build(ImplMD, callProgram(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if md.RT.Sys.Len() >= am.RT.Sys.Len() {
		t.Errorf("MD system code (%d) not smaller than AM's (%d)",
			md.RT.Sys.Len(), am.RT.Sys.Len())
	}
}
