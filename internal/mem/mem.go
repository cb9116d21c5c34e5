// Package mem models the simulated machine's address space.
//
// The address map is segmented so that the trace layer can classify every
// reference as (system | user) x (code | data), the classification used in
// §3.1 of the paper. Addresses are byte addresses; every word occupies
// WordBytes bytes. Code segments hold instructions (one instruction per
// word address) and are touched only by instruction fetch; data segments
// hold tagged words.
//
// Each data segment is a table of fixed-size pages. A page is allocated
// on its first store, and a page never stored reads as zero words, so a
// memory holds only the pages its simulation touched. A mesh node other
// than node 0 takes a GetView of node 0's memory, which shares node 0's
// frame and heap page tables. Release clears the pages a pooled memory
// stored and returns them to a page pool.
package mem

import (
	"fmt"
	"math/bits"
	"sync"

	"jmtam/internal/word"
)

// WordBytes is the size of one machine word in bytes. Instruction fetch
// and data access granularity is one word; the cache simulator maps byte
// addresses to blocks of 8-64 bytes.
const WordBytes = 4

// Segment base addresses. Segments are generously sized and disjoint;
// nothing depends on their exact values beyond ordering and alignment.
const (
	SysCodeBase  uint32 = 0x0000_0000 // runtime/system instructions
	UserCodeBase uint32 = 0x0010_0000 // program inlets and threads
	SysDataBase  uint32 = 0x0100_0000 // message queues, LCV, globals
	FrameBase    uint32 = 0x0200_0000 // activation frames
	HeapBase     uint32 = 0x0400_0000 // I-structures and arrays
	TopOfMemory  uint32 = 0x0800_0000
)

// Segment sizes in words.
const (
	SysCodeWords  = (UserCodeBase - SysCodeBase) / WordBytes
	UserCodeWords = (SysDataBase - UserCodeBase) / WordBytes
	SysDataWords  = (FrameBase - SysDataBase) / WordBytes
	FrameWords    = (HeapBase - FrameBase) / WordBytes
	HeapWords     = (TopOfMemory - HeapBase) / WordBytes
)

// Class identifies which region of the address map a reference falls in.
type Class uint8

// Reference classes, following the paper's system/user split: system data
// comprises the incoming message queues, operating-system globals and the
// LCV; user data comprises frames and the heap.
const (
	ClassSysCode Class = iota
	ClassUserCode
	ClassSysData
	ClassUserData // frames + heap
	NumClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassSysCode:
		return "sys-code"
	case ClassUserCode:
		return "user-code"
	case ClassSysData:
		return "sys-data"
	case ClassUserData:
		return "user-data"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Classify maps a byte address to its reference class.
func Classify(addr uint32) Class {
	switch {
	case addr < UserCodeBase:
		return ClassSysCode
	case addr < SysDataBase:
		return ClassUserCode
	case addr < FrameBase:
		return ClassSysData
	default:
		return ClassUserData
	}
}

// IsCode reports whether addr lies in a code segment.
func IsCode(addr uint32) bool { return addr < SysDataBase }

// Memory is the simulated data memory. Code is stored separately (see
// package asm); Memory covers only the three data segments, each a
// table of pages that are allocated on their first store.
type Memory struct {
	// segs maps the top bits of a byte address, addr>>24 & 7, to the
	// data segment that holds it: system data, frames twice and the heap
	// four times. The code segments map to an empty segment, and so
	// does every address past the top of memory, since it lands at
	// least 2^25 words past the start of whatever entry it aliases,
	// beyond the largest segment. Load and Store then need one table
	// entry and one compare.
	segs [8]segment

	// poolable marks memories born from GetDefault or GetView. Release
	// is a no-op for every other memory: New/NewDefault callers own
	// theirs.
	poolable bool
	// view marks a GetView memory, whose frame and heap pages belong to
	// the memory it aliases.
	view bool
}

// Page geometry: a data segment is a table of pages of pageWords words
// (96 KiB of tagged words).
const (
	pageShift = 12
	pageWords = 1 << pageShift
)

// page is one page of a data segment.
type page [pageWords]word.Word

// segment is one entry of Memory.segs: the page table of a data
// segment, the byte address of its first word and its length in words.
// A nil entry is a page never stored, whose words read as zero. Copies
// of a segment share its table, so a page allocated through one copy is
// seen through every other.
type segment struct {
	pages []*page
	base  uint32
	limit uint32
}

// newSegment returns an empty segment of n words at byte address base,
// with n clamped to [0, capWords].
func newSegment(base uint32, n int, capWords uint32) segment {
	n = min(max(n, 0), int(capWords))
	return segment{make([]*page, (n+pageWords-1)/pageWords), base, uint32(n)}
}

// Indices of each data segment's first entry in Memory.segs.
const (
	sysSeg   = SysDataBase >> 24
	frameSeg = FrameBase >> 24
	heapSeg  = HeapBase >> 24
)

// mapSegments fills the segment table from the three segments.
func (m *Memory) mapSegments(sys, fr, hp segment) {
	m.segs = [8]segment{{}, sys, fr, fr, hp, hp, hp, hp}
}

// New returns an empty memory whose data segments hold the given
// numbers of words, clamped to the segment capacities. It allocates
// only page tables: each page is allocated on its first store.
func New(sysDataWords, frameWords, heapWords int) *Memory {
	m := &Memory{}
	m.mapSegments(
		newSegment(SysDataBase, sysDataWords, SysDataWords),
		newSegment(FrameBase, frameWords, FrameWords),
		newSegment(HeapBase, heapWords, HeapWords))
	return m
}

// Default segment sizes (words): 1 MB of system data (the runtime
// globals, both hardware queues and the deferred-node pool fit in the
// first 300 Kbytes), 1 MB of frame memory and 2 MB of heap — ample for
// every benchmark at the paper's arguments. Since pages are allocated
// on their first store, the sizes bound addresses, not allocation. New
// with larger sizes lifts the limits.
const (
	DefaultSysDataWords = 1 << 18
	DefaultFrameWords   = 1 << 18
	DefaultHeapWords    = 1 << 19
)

// NewDefault returns a memory with the default segment sizes.
func NewDefault() *Memory {
	return New(DefaultSysDataWords, DefaultFrameWords, DefaultHeapWords)
}

// pagePool recycles cleared pages between memories: Release clears each
// page a simulation stored and puts it back, so a first store takes a
// zeroed page without the allocator zeroing one.
var pagePool = sync.Pool{New: func() any { return new(page) }}

// GetDefault returns an empty default-size memory whose pages come from
// the page pool. Pass it to Release when the simulation is done, which
// returns its pages; until then it behaves exactly like NewDefault's
// (words never stored read as integer 0).
func GetDefault() *Memory {
	m := NewDefault()
	m.poolable = true
	return m
}

// GetView returns a memory that shares base's frame and heap page
// tables and owns an empty default-size system-data segment: a mesh
// node's view of node 0's memory, where frames and I-structures form
// one global store (partitioned by the runtime's per-node bump
// allocators) and message queues, runtime globals and the LCV stay
// node-private. A frame or heap page that any node allocates belongs to
// every node. Its pages come from the page pool. The view must not be
// used once base is released.
func GetView(base *Memory) *Memory {
	v := &Memory{poolable: true, view: true}
	v.mapSegments(newSegment(SysDataBase, DefaultSysDataWords, SysDataWords),
		base.segs[frameSeg], base.segs[heapSeg])
	return v
}

// Release clears every page the memory stored and returns the pages to
// the page pool. A view releases only its system data: its frame and
// heap pages are its base's, whose own Release clears them. It is a no-op
// unless m came from GetDefault or GetView, so callers may release
// unconditionally. The caller must not use m afterwards.
func (m *Memory) Release() {
	if m == nil || !m.poolable {
		return
	}
	m.segs[sysSeg].release()
	if !m.view {
		m.segs[frameSeg].release()
		m.segs[heapSeg].release()
	}
}

// release clears each allocated page of s and returns it to the pool.
func (s *segment) release() {
	for j, p := range s.pages {
		if p != nil {
			clear(p[:])
			pagePool.Put(p)
			s.pages[j] = nil
		}
	}
}

// page returns the page that holds word i of s, allocating it on the
// first store.
func (s *segment) page(i uint32) *page {
	p := &s.pages[i>>pageShift]
	if *p == nil {
		*p = pagePool.Get().(*page)
	}
	return *p
}

// Load reads the word at byte address addr. It inlines: the word index
// is the offset into the address's segment rotated right by two bits,
// so an unaligned address has a high bit set and fails the one limit
// compare, like an address outside the segment. A word on a page never
// stored reads as zero.
func (m *Memory) Load(addr uint32) word.Word {
	s := &m.segs[addr>>24&7]
	if i := bits.RotateLeft32(addr-s.base, -2); i < s.limit {
		if p := s.pages[i>>pageShift]; p != nil {
			return p[i&(pageWords-1)]
		}
		return word.Word{}
	}
	panic(accessFault{addr, false})
}

// TryStore writes the word at byte address addr if the page that holds
// it is allocated, and reports whether it did. It inlines, so the
// interpreter stores into an existing page in line; where it reports
// false, Store allocates the page or faults.
func (m *Memory) TryStore(addr uint32, w word.Word) bool {
	s := &m.segs[addr>>24&7]
	if i := bits.RotateLeft32(addr-s.base, -2); i < s.limit {
		if p := s.pages[i>>pageShift]; p != nil {
			p[i&(pageWords-1)] = w
			return true
		}
	}
	return false
}

// Store writes the word at byte address addr, checked as Load checks,
// allocating its page on the first store.
func (m *Memory) Store(addr uint32, w word.Word) {
	s := &m.segs[addr>>24&7]
	i := bits.RotateLeft32(addr-s.base, -2)
	if i >= s.limit {
		panic(accessFault{addr, true})
	}
	s.page(i)[i&(pageWords-1)] = w
}

// StoreWords writes ws to consecutive words starting at byte address
// addr, with one segment lookup and one limit check for the run, which
// may cross pages.
func (m *Memory) StoreWords(addr uint32, ws []word.Word) {
	s := &m.segs[addr>>24&7]
	i := bits.RotateLeft32(addr-s.base, -2)
	if uint64(i)+uint64(len(ws)) > uint64(s.limit) {
		panic(accessFault{addr, true})
	}
	for len(ws) > 0 {
		n := copy(s.page(i)[i&(pageWords-1):], ws)
		ws = ws[n:]
		i += uint32(n)
	}
}

// accessFault is the panic value of a data access that fails its
// bounds compare. Its text is built only when something prints it, so
// the accessors keep no formatting code in line and inline.
type accessFault struct {
	addr  uint32
	store bool
}

// Error names what is wrong with the access: an unaligned address
// first, then one in a code segment, then one past the end of its
// segment.
func (f accessFault) Error() string {
	switch {
	case f.addr%WordBytes != 0:
		return fmt.Sprintf("mem: unaligned access at %#x", f.addr)
	case IsCode(f.addr):
		return fmt.Sprintf("mem: data access to code segment at %#x", f.addr)
	case f.store:
		return fmt.Sprintf("mem: store beyond segment at %#x", f.addr)
	default:
		return fmt.Sprintf("mem: load beyond segment at %#x", f.addr)
	}
}

// LoadInt is a convenience accessor returning the integer view at addr.
func (m *Memory) LoadInt(addr uint32) int64 { return m.Load(addr).AsInt() }

// StoreInt stores an integer word at addr.
func (m *Memory) StoreInt(addr uint32, v int64) { m.Store(addr, word.Int(v)) }
