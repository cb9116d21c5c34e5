// Package mem models the simulated machine's address space.
//
// The address map is segmented so that the trace layer can classify every
// reference as (system | user) x (code | data), the classification used in
// §3.1 of the paper. Addresses are byte addresses; every word occupies
// WordBytes bytes. Code segments hold instructions (one instruction per
// word address) and are touched only by instruction fetch; data segments
// hold tagged words.
//
// Pooled memories clear only the stored prefix of each segment on
// Release. A mesh node other than node 0 takes a GetView of node 0's
// memory; its frame and heap stores land in that base, so releasing the
// view folds its watermarks into the base: release views before the base.
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
// package asm); Memory covers only the three data segments, each
// allocated whole when the memory is made.
type Memory struct {
	sysData []word.Word
	frames  []word.Word
	heap    []word.Word

	// segs maps the top bits of a byte address, addr>>24 & 7, to the
	// data segment that holds it: system data, frames twice and the heap
	// four times. The code segments map to an empty segment, and so
	// does every address past the top of memory, since it lands at
	// least 2^25 words past the start of whatever entry it aliases,
	// beyond the largest segment. Load and Store then need one table
	// entry and one compare.
	segs [8]segment

	// used holds one high-water mark per segment (sysData, frames,
	// heap): one past the highest word index ever stored. Release
	// clears only these prefixes, so a pooled memory is reusable
	// without re-zeroing the full 24-byte-per-word segments — the
	// dominant allocation cost of a record-once simulation. The fourth
	// mark is the empty segment's, which no store reaches.
	used [4]uint32

	// poolable marks memories born from GetDefault or GetView. Release
	// is a no-op for every other memory: New/NewDefault callers own
	// theirs.
	poolable bool
	// base is the memory a GetView view aliases, nil otherwise.
	base *Memory
}

// segment is one entry of Memory.segs: the words of a data segment,
// the byte address of its first word and the index of its high-water
// mark in Memory.used.
type segment struct {
	words []word.Word
	base  uint32
	mark  uint32
}

// mapSegments fills the segment table from the three segments.
func (m *Memory) mapSegments() {
	sys := segment{m.sysData, SysDataBase, 0}
	fr := segment{m.frames, FrameBase, 1}
	hp := segment{m.heap, HeapBase, 2}
	m.segs = [8]segment{{mark: 3}, sys, fr, fr, hp, hp, hp, hp}
}

// New returns an empty memory with all data segments allocated to their
// configured capacities. Sizes are given in words and are clamped to the
// segment capacities.
func New(sysDataWords, frameWords, heapWords int) *Memory {
	clamp := func(n int, max uint32) int {
		if n < 0 {
			n = 0
		}
		if uint32(n) > max {
			n = int(max)
		}
		return n
	}
	m := &Memory{
		sysData: make([]word.Word, clamp(sysDataWords, SysDataWords)),
		frames:  make([]word.Word, clamp(frameWords, FrameWords)),
		heap:    make([]word.Word, clamp(heapWords, HeapWords)),
	}
	m.mapSegments()
	return m
}

// Default segment sizes (words): 1 MB of system data (the runtime
// globals, both hardware queues and the deferred-node pool fit in the
// first 300 Kbytes), 1 MB of frame memory and 2 MB of heap — ample for
// every benchmark at the paper's arguments while keeping per-simulation
// allocation modest. New with larger sizes lifts the limits.
const (
	DefaultSysDataWords = 1 << 18
	DefaultFrameWords   = 1 << 18
	DefaultHeapWords    = 1 << 19
)

// NewDefault returns a memory with the default segment sizes.
func NewDefault() *Memory {
	return New(DefaultSysDataWords, DefaultFrameWords, DefaultHeapWords)
}

// defaultPool recycles default-size memories between simulations.
// Zeroing the three data segments (24 MB of tagged words) dominated
// the record phase of a sweep; a recycled memory instead clears only
// the prefix of each segment the previous simulation actually stored
// (tracked by the used watermarks), which for the paper's benchmarks
// is a small fraction of capacity.
var defaultPool = sync.Pool{
	New: func() any {
		m := NewDefault()
		m.poolable = true
		return m
	},
}

// GetDefault returns a cleared default-size memory, recycled from the
// pool when one is available. Pass it to Release when the simulation
// is done; a GetDefault memory behaves exactly like NewDefault's
// (zeroed words read as integer 0).
func GetDefault() *Memory {
	return defaultPool.Get().(*Memory)
}

// viewPool recycles views with their default-size system-data segments.
var viewPool = sync.Pool{
	New: func() any {
		return &Memory{sysData: make([]word.Word, DefaultSysDataWords), poolable: true}
	},
}

// GetView returns a pooled memory that aliases base's frame and heap
// segments and owns a private, cleared default-size system-data segment:
// a mesh node's view of node 0's memory, where frames and I-structures
// form one global store (partitioned by the runtime's per-node bump
// allocators) and message queues, runtime globals and the LCV stay
// node-private. Release the view before base.
func GetView(base *Memory) *Memory {
	v := viewPool.Get().(*Memory)
	v.frames, v.heap, v.base = base.frames, base.heap, base
	v.mapSegments()
	return v
}

// Release clears the stored prefix of each segment and returns the
// memory to the pool. A view clears only its system data and folds its
// frame and heap watermarks into its base, whose own Release clears
// them. It is a no-op unless m came from GetDefault or GetView, so
// callers may release unconditionally. The caller must not use m
// afterwards.
func (m *Memory) Release() {
	if m == nil || !m.poolable {
		return
	}
	clear(m.sysData[:m.used[0]])
	if b := m.base; b != nil {
		b.used[1] = max(b.used[1], m.used[1])
		b.used[2] = max(b.used[2], m.used[2])
		*m = Memory{sysData: m.sysData, poolable: true}
		viewPool.Put(m)
		return
	}
	clear(m.frames[:m.used[1]])
	clear(m.heap[:m.used[2]])
	m.used = [4]uint32{}
	defaultPool.Put(m)
}

// Load reads the word at byte address addr. It inlines: the word index
// is the offset into the address's segment rotated right by two bits,
// so an unaligned address has a high bit set and fails the one bounds
// compare, like an address outside the segment.
func (m *Memory) Load(addr uint32) word.Word {
	s := &m.segs[addr>>24&7]
	if i := bits.RotateLeft32(addr-s.base, -2); i < uint32(len(s.words)) {
		return s.words[i]
	}
	panic(accessFault{addr, false})
}

// Store writes the word at byte address addr, checked as Load checks.
func (m *Memory) Store(addr uint32, w word.Word) {
	s := &m.segs[addr>>24&7]
	i := bits.RotateLeft32(addr-s.base, -2)
	if i >= uint32(len(s.words)) {
		panic(accessFault{addr, true})
	}
	s.words[i] = w
	if u := &m.used[s.mark&3]; i >= *u {
		*u = i + 1
	}
}

// StoreWords writes ws to consecutive words starting at byte address
// addr, with one segment lookup and one bounds check for the run.
func (m *Memory) StoreWords(addr uint32, ws []word.Word) {
	s := &m.segs[addr>>24&7]
	i := bits.RotateLeft32(addr-s.base, -2)
	end := uint64(i) + uint64(len(ws))
	if end > uint64(len(s.words)) {
		panic(accessFault{addr, true})
	}
	copy(s.words[i:end], ws)
	if u := &m.used[s.mark&3]; uint32(end) > *u {
		*u = uint32(end)
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
