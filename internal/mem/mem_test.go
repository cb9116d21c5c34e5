package mem

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"jmtam/internal/word"
)

func TestClassify(t *testing.T) {
	cases := map[uint32]Class{
		SysCodeBase:      ClassSysCode,
		UserCodeBase - 4: ClassSysCode,
		UserCodeBase:     ClassUserCode,
		SysDataBase - 4:  ClassUserCode,
		SysDataBase:      ClassSysData,
		FrameBase - 4:    ClassSysData,
		FrameBase:        ClassUserData,
		HeapBase:         ClassUserData,
		TopOfMemory - 4:  ClassUserData,
	}
	for addr, want := range cases {
		if got := Classify(addr); got != want {
			t.Errorf("Classify(%#x) = %v, want %v", addr, got, want)
		}
	}
}

func TestIsCode(t *testing.T) {
	if !IsCode(SysCodeBase) || !IsCode(UserCodeBase) {
		t.Error("code bases not classified as code")
	}
	if IsCode(SysDataBase) || IsCode(HeapBase) {
		t.Error("data bases classified as code")
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassSysCode: "sys-code", ClassUserCode: "user-code",
		ClassSysData: "sys-data", ClassUserData: "user-data",
		Class(9): "class(9)",
	} {
		if got := c.String(); got != want {
			t.Errorf("Class.String() = %q, want %q", got, want)
		}
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New(1024, 1024, 1024)
	for _, addr := range []uint32{SysDataBase, SysDataBase + 4092, FrameBase, HeapBase + 400} {
		w := word.Float(3.25)
		m.Store(addr, w)
		if got := m.Load(addr); got != w {
			t.Errorf("Load(%#x) = %v, want %v", addr, got, w)
		}
	}
}

func TestLoadStoreProperty(t *testing.T) {
	m := NewDefault()
	f := func(off uint16, v int64) bool {
		addr := HeapBase + uint32(off)*WordBytes
		m.StoreInt(addr, v)
		return m.LoadInt(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnalignedPanics(t *testing.T) {
	m := New(16, 16, 16)
	defer func() {
		if recover() == nil {
			t.Error("unaligned access did not panic")
		}
	}()
	m.Load(SysDataBase + 2)
}

func TestCodeSegmentAccessPanics(t *testing.T) {
	m := New(16, 16, 16)
	defer func() {
		if recover() == nil {
			t.Error("data access to code segment did not panic")
		}
	}()
	m.Load(SysCodeBase + 4)
}

func TestOutOfSegmentPanics(t *testing.T) {
	m := New(4, 4, 4)
	defer func() {
		if recover() == nil {
			t.Error("load beyond segment did not panic")
		}
	}()
	m.Load(SysDataBase + 4*WordBytes)
}

// TestFaultTexts pins the panic text of every faulting access: an
// unaligned address first, then an address in a code segment, then an
// index past the end of its segment, including addresses past the top
// of memory.
func TestFaultTexts(t *testing.T) {
	m := New(4, 4, 4)
	for _, c := range []struct {
		op   string
		addr uint32
		want string
	}{
		{"load", SysDataBase + 2, "mem: unaligned access at 0x1000002"},
		{"store", HeapBase + 1, "mem: unaligned access at 0x4000001"},
		{"words", FrameBase + 3, "mem: unaligned access at 0x2000003"},
		{"load", TopOfMemory + 2, "mem: unaligned access at 0x8000002"},
		{"load", SysCodeBase + 4, "mem: data access to code segment at 0x4"},
		{"store", UserCodeBase, "mem: data access to code segment at 0x100000"},
		{"words", SysDataBase - 4, "mem: data access to code segment at 0xfffffc"},
		{"load", SysDataBase + 16, "mem: load beyond segment at 0x1000010"},
		{"load", FrameBase + 16, "mem: load beyond segment at 0x2000010"},
		{"load", HeapBase - 4, "mem: load beyond segment at 0x3fffffc"},
		{"load", TopOfMemory, "mem: load beyond segment at 0x8000000"},
		{"load", 0xfffffffc, "mem: load beyond segment at 0xfffffffc"},
		{"store", HeapBase + 16, "mem: store beyond segment at 0x4000010"},
		{"store", TopOfMemory + SysDataBase, "mem: store beyond segment at 0x9000000"},
		{"words", SysDataBase + 8, "mem: store beyond segment at 0x1000008"},
	} {
		got := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			switch c.op {
			case "load":
				m.Load(c.addr)
			case "store":
				m.Store(c.addr, word.Int(1))
			default:
				m.StoreWords(c.addr, make([]word.Word, 3))
			}
			return ""
		}()
		if got != c.want {
			t.Errorf("%s at %#x: panic %q, want %q", c.op, c.addr, got, c.want)
		}
	}
	for _, addr := range []uint32{SysDataBase + 12, FrameBase + 12, HeapBase + 12} {
		m.Store(addr, word.Int(7))
		if got := m.LoadInt(addr); got != 7 {
			t.Errorf("last word at %#x reads %d, want 7", addr, got)
		}
	}
}

func TestSegmentClamping(t *testing.T) {
	m := New(-5, 1<<30, 0)
	// Negative clamps to zero; huge clamps to segment capacity. The
	// frame segment must accept its full range.
	m.Store(FrameBase, word.Int(1))
	if m.LoadInt(FrameBase) != 1 {
		t.Error("clamped frame segment unusable")
	}
}

// TestPooledMemoryComesBackZeroed exercises the GetDefault/Release
// cycle: a recycled memory must read as all-zeros everywhere a prior
// user stored, including the highest touched address per segment.
func TestPooledMemoryComesBackZeroed(t *testing.T) {
	addrs := []uint32{
		SysDataBase, SysDataBase + 4096, SysDataBase + 4*(DefaultSysDataWords-1),
		FrameBase, FrameBase + 8192, FrameBase + 4*(DefaultFrameWords-1),
		HeapBase, HeapBase + 64, HeapBase + 4*(DefaultHeapWords-1),
	}
	m := GetDefault()
	for _, a := range addrs {
		m.Store(a, word.Int(42))
	}
	m.Release()
	// The pool may or may not hand the same memory back; either way
	// every Get must behave like a fresh NewDefault.
	for i := 0; i < 4; i++ {
		m := GetDefault()
		for _, a := range addrs {
			if v := m.Load(a); v != (word.Word{}) {
				t.Fatalf("get %d: addr %#x = %+v, want zero word", i, a, v)
			}
			m.Store(a, word.Int(int64(i)+1))
		}
		m.Release()
	}
}

// TestReleaseIgnoresUnpooledMemories pins the no-op contract for
// memories the pool does not own.
func TestReleaseIgnoresUnpooledMemories(t *testing.T) {
	m := NewDefault()
	m.Store(HeapBase, word.Int(7))
	m.Release() // must not panic or recycle
	if got := m.Load(HeapBase).AsInt(); got != 7 {
		t.Fatalf("Release cleared an unpooled memory: %d", got)
	}
	v := GetView(m)
	v.Store(FrameBase, word.Int(9))
	v.Release()
	m.Release()
	if got := m.Load(FrameBase).AsInt(); got != 9 {
		t.Fatalf("Release cleared a view's aliased segment: %d", got)
	}
	var nilMem *Memory
	nilMem.Release() // nil receiver is a no-op too
}

// Edge addresses of the default-size segments.
var (
	sysEdges   = []uint32{SysDataBase, SysDataBase + 4*(DefaultSysDataWords-1)}
	frameEdges = []uint32{FrameBase, FrameBase + 4*(DefaultFrameWords-1)}
	heapEdges  = []uint32{HeapBase, HeapBase + 4*(DefaultHeapWords-1)}
)

// meshMemory takes a pooled base and views of it, as a mesh does, and
// stores v at the edges of every memory's system data. The last view
// also stores at the top frame and heap words and the first view at the
// bottom ones, so releasing the views in reverse order checks that the
// base keeps the highest watermark, not the last one folded.
func meshMemory(views int, v int64) []*Memory {
	ms := []*Memory{GetDefault()}
	for i := 0; i < views; i++ {
		ms = append(ms, GetView(ms[0]))
	}
	for _, m := range ms {
		for _, a := range sysEdges {
			m.Store(a, word.Int(v))
		}
	}
	ms[len(ms)-1].Store(frameEdges[1], word.Int(v))
	ms[len(ms)-1].Store(heapEdges[1], word.Int(v))
	ms[1].Store(frameEdges[0], word.Int(v))
	ms[1].Store(heapEdges[0], word.Int(v))
	return ms
}

// checkZero reports every edge address m reads as non-zero.
func checkZero(t *testing.T, what string, m *Memory) {
	t.Helper()
	for _, edges := range [][]uint32{sysEdges, frameEdges, heapEdges} {
		for _, a := range edges {
			if w := m.Load(a); w != (word.Word{}) {
				t.Errorf("%s: addr %#x = %+v, want zero word", what, a, w)
			}
		}
	}
}

// release hands views back before their base, in reverse order.
func release(ms []*Memory) {
	for i := len(ms) - 1; i >= 0; i-- {
		ms[i].Release()
	}
}

// TestPooledViewsComeBackZeroed releases a base with several views
// after stores at every segment edge: every later base and view,
// including a view of a different base, must read zero there.
func TestPooledViewsComeBackZeroed(t *testing.T) {
	ms := meshMemory(3, 42)
	if got := ms[0].LoadInt(frameEdges[1]); got != 42 {
		t.Fatalf("base reads %d through a view's frame store, want 42", got)
	}
	release(ms)
	for i := 0; i < 4; i++ {
		ms := []*Memory{GetDefault()}
		ms = append(ms, GetView(ms[0]), GetView(ms[0]), GetView(ms[0]))
		other := GetView(NewDefault())
		for k, m := range append(ms, other) {
			checkZero(t, fmt.Sprintf("round %d memory %d", i, k), m)
		}
		other.Release()
		release(ms)
		release(meshMemory(3, int64(i)+1))
	}
}

// TestPooledViewsConcurrent builds and releases base-and-views sets
// from two goroutines at once, as a sweep running two mesh cells does.
func TestPooledViewsConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				ms := []*Memory{GetDefault()}
				ms = append(ms, GetView(ms[0]), GetView(ms[0]))
				for k, m := range ms {
					checkZero(t, fmt.Sprintf("goroutine %d round %d memory %d", g, i, k), m)
				}
				release(ms)
				release(meshMemory(2, int64(g+1)))
			}
		}()
	}
	wg.Wait()
}
