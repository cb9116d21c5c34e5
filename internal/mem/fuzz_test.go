package mem

import (
	"fmt"
	"slices"
	"testing"

	"jmtam/internal/word"
)

// flat is the reference memory FuzzMemoryMatchesFlat checks against:
// one map of words for each memory's system data, one map for the
// frames and heap that a base and its views share, and the fault rules
// written out by address range over the default segment sizes.
type flat struct {
	sys  []map[uint32]word.Word
	user map[uint32]word.Word
}

// fault returns the text of the fault an access of n words at addr
// raises, or "" when every word is in range.
func (flat) fault(addr uint32, n int, store bool) string {
	if addr%WordBytes != 0 {
		return fmt.Sprintf("mem: unaligned access at %#x", addr)
	}
	if addr < SysDataBase {
		return fmt.Sprintf("mem: data access to code segment at %#x", addr)
	}
	var base, limit uint32
	switch {
	case addr < FrameBase:
		base, limit = SysDataBase, DefaultSysDataWords
	case addr < HeapBase:
		base, limit = FrameBase, DefaultFrameWords
	case addr < TopOfMemory:
		base, limit = HeapBase, DefaultHeapWords
	default:
		base, limit = addr, 0
	}
	if uint64(addr-base)/WordBytes+uint64(n) > uint64(limit) || addr >= TopOfMemory {
		if store {
			return fmt.Sprintf("mem: store beyond segment at %#x", addr)
		}
		return fmt.Sprintf("mem: load beyond segment at %#x", addr)
	}
	return ""
}

// words returns the map that holds memory k's word at addr.
func (f *flat) words(k int, addr uint32) map[uint32]word.Word {
	if addr < FrameBase {
		return f.sys[k]
	}
	return f.user
}

// pages lists the pages memory k should hold, by the byte address of
// each page's first word: those of every word stored in its system data
// and in the shared frames and heap.
func (f *flat) pages(k int) []uint32 {
	var pages []uint32
	for _, ws := range []map[uint32]word.Word{f.sys[k], f.user} {
		for a := range ws {
			pages = append(pages, a&^(pageBytes-1))
		}
	}
	slices.Sort(pages)
	return slices.Compact(pages)
}

// fuzzOps reads a fuzz input as a stream of choices; an exhausted
// stream reads as zeros.
type fuzzOps []byte

func (o *fuzzOps) next() byte {
	if len(*o) == 0 {
		return 0
	}
	b := (*o)[0]
	*o = (*o)[1:]
	return b
}

// fuzzRegions are the starts and limits (in words) the fuzzer picks
// addresses around: the three default-size segments, the code segments,
// and the top of memory, with an alias of system data past it.
var fuzzRegions = []struct{ base, limit uint32 }{
	{SysDataBase, DefaultSysDataWords},
	{FrameBase, DefaultFrameWords},
	{HeapBase, DefaultHeapWords},
	{UserCodeBase, SysDataWords},
	{TopOfMemory, 0},
	{TopOfMemory + SysDataBase, DefaultSysDataWords},
}

// addr picks a byte address a few words from a page edge or a segment
// limit of one region, now and then unaligned.
func (o *fuzzOps) addr() uint32 {
	r := fuzzRegions[int(o.next())%len(fuzzRegions)]
	e := o.next()
	var idx uint32
	switch e % 4 {
	case 0:
		idx = 0
	case 1:
		idx = uint32(e/4%4+1) * pageWords
	case 2:
		idx = r.limit
	default:
		idx = r.limit - pageWords
	}
	a := r.base + (idx+uint32(int(o.next()%9)-4))*WordBytes
	if o.next()%8 == 0 {
		a += uint32(1 + o.next()%3)
	}
	return a
}

// recovered runs f and returns the text of its panic, or "" if none.
func recovered(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// FuzzMemoryMatchesFlat runs random stores, StoreWords runs, loads,
// GetView and Release over a pooled base and up to three views, at
// addresses around page and segment edges, against the flat reference:
// every load must read the reference's word, every fault must carry its
// text, and after every operation each memory must hold exactly the
// pages its stores (and, for frames and heap, its base's and sibling
// views' stores) touched.
func FuzzMemoryMatchesFlat(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 9, 3, 0, 0, 0, 4, 0})
	f.Add([]byte{5, 5, 5, 2, 1, 5, 4, 1, 30, 3, 1, 5, 4, 1, 3, 1, 2, 3, 7, 3, 2, 6, 1})
	f.Add([]byte{2, 2, 1, 1, 200, 2, 0, 3, 4, 3, 7, 1, 0, 1, 6, 2, 5, 2, 1, 2, 3, 3, 2, 3, 5, 9, 1})
	f.Add([]byte{5, 0, 1, 3, 1, 0, 7, 1, 1, 0, 1, 5, 2, 2, 3, 8, 2, 0, 2, 4, 4, 1, 1, 1, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		ops := fuzzOps(in)
		ms := []*Memory{GetDefault()}
		ref := &flat{sys: []map[uint32]word.Word{{}}, user: map[uint32]word.Word{}}
		defer func() { release(ms) }()
		seq := int64(0)
		for step := 0; len(ops) > 0 && step < 256; step++ {
			op := ops.next() % 8
			k := int(ops.next()) % len(ms)
			m := ms[k]
			switch op {
			case 0, 1:
				a := ops.addr()
				seq++
				w := word.Int(seq)
				want := ref.fault(a, 1, true)
				if got := recovered(func() { m.Store(a, w) }); got != want {
					t.Fatalf("step %d: memory %d Store(%#x) panics %q, want %q", step, k, a, got, want)
				}
				if want == "" {
					ref.words(k, a)[a] = w
				}
			case 2:
				a := ops.addr()
				n := int(ops.next() % 10)
				if n == 9 {
					n = pageWords + int(ops.next())
				}
				ws := make([]word.Word, n)
				for i := range ws {
					seq++
					ws[i] = word.Int(seq)
				}
				want := ref.fault(a, n, true)
				if got := recovered(func() { m.StoreWords(a, ws) }); got != want {
					t.Fatalf("step %d: memory %d StoreWords(%#x, %d words) panics %q, want %q", step, k, a, n, got, want)
				}
				if want == "" {
					for i, w := range ws {
						wa := a + uint32(i)*WordBytes
						ref.words(k, wa)[wa] = w
					}
				}
			case 3, 4:
				a := ops.addr()
				var got word.Word
				want := ref.fault(a, 1, false)
				if msg := recovered(func() { got = m.Load(a) }); msg != want {
					t.Fatalf("step %d: memory %d Load(%#x) panics %q, want %q", step, k, a, msg, want)
				}
				if want == "" && got != ref.words(k, a)[a] {
					t.Fatalf("step %d: memory %d Load(%#x) = %+v, want %+v", step, k, a, got, ref.words(k, a)[a])
				}
			case 5:
				if len(ms) < 4 {
					ms = append(ms, GetView(ms[0]))
					ref.sys = append(ref.sys, map[uint32]word.Word{})
				}
			case 6:
				if k > 0 {
					m.Release()
					ms = slices.Delete(ms, k, k+1)
					ref.sys = slices.Delete(ref.sys, k, k+1)
				}
			default:
				// The base first, as ClusterSim.Close releases a mesh.
				for _, m := range ms {
					m.Release()
				}
				ms = []*Memory{GetDefault()}
				ref = &flat{sys: []map[uint32]word.Word{{}}, user: map[uint32]word.Word{}}
			}
			for k, m := range ms {
				if got, want := held(m), ref.pages(k); !slices.Equal(got, want) {
					t.Fatalf("step %d: memory %d holds pages %#x, want %#x", step, k, got, want)
				}
			}
		}
	})
}
