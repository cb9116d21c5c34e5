package cache

import (
	"testing"
	"testing/quick"

	"jmtam/internal/rng"
)

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{1024, 8, 1}, {8192, 64, 4}, {131072, 64, 2}, {64, 8, 8},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%v: unexpected error %v", c, err)
		}
	}
	bad := []Config{
		{0, 64, 1},    // zero size
		{1000, 64, 1}, // non-power-of-two size
		{1024, 0, 1},  // zero block
		{1024, 48, 1}, // non-power-of-two block
		{1024, 64, 0}, // zero assoc
		{8192, 64, 3}, // non-power-of-two assoc
		{64, 64, 4},   // too small for one set
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%v: expected validation error", c)
		}
	}
}

func TestConfigString(t *testing.T) {
	c := Config{SizeBytes: 8192, BlockBytes: 64, Assoc: 4}
	if got := c.String(); got != "8K/4-way/64B" {
		t.Errorf("String() = %q", got)
	}
}

// member builds a fresh cache of the geometry as the one member of a
// bank, and returns it with a probe that streams one reference through
// the bank and reports whether it hit.
func member(t *testing.T, cfg Config) (*Cache, func(addr uint32, write bool) bool) {
	t.Helper()
	c := MustNew(cfg)
	b, err := BankOf(c)
	if err != nil {
		t.Fatal(err)
	}
	return c, func(addr uint32, write bool) bool {
		misses := c.Stats().Misses
		if write {
			addr |= RefWrite
		}
		b.AccessBatch([]uint32{addr}, 1)
		return c.Stats().Misses == misses
	}
}

func TestCompulsoryMisses(t *testing.T) {
	c, access := member(t, Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 2})
	for i := uint32(0); i < 8; i++ {
		if access(i*64, false) {
			t.Errorf("first touch of block %d hit", i)
		}
		if !access(i*64, false) {
			t.Errorf("second touch of block %d missed", i)
		}
	}
	s := c.Stats()
	if s.Accesses != 16 || s.Misses != 8 {
		t.Errorf("stats = %+v, want 16 accesses / 8 misses", s)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	// 1K direct-mapped with 64B blocks = 16 sets. Addresses 0 and 1024
	// map to the same set and evict each other.
	_, access := member(t, Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1})
	access(0, false)
	access(1024, false)
	if access(0, false) {
		t.Error("conflicting block survived in direct-mapped cache")
	}
	// The same pattern in a 2-way cache has no conflict.
	_, access2 := member(t, Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 2})
	access2(0, false)
	access2(1024, false)
	if !access2(0, false) {
		t.Error("2-way cache evicted a block it had room for")
	}
}

func TestLRUOrder(t *testing.T) {
	// One set, 4 ways: fill A B C D, touch A, insert E: B (the LRU)
	// must be the victim.
	_, access := member(t, Config{SizeBytes: 256, BlockBytes: 64, Assoc: 4})
	addrs := []uint32{0, 256, 512, 768} // all map to set 0
	for _, a := range addrs {
		access(a, false)
	}
	access(0, false)    // A is now most recent
	access(1024, false) // E evicts B
	// A, C and D hit, and each hit evicts nothing; B, probed last, then
	// misses.
	if !access(0, false) {
		t.Error("A was evicted despite being recently used")
	}
	if !access(512, false) || !access(768, false) {
		t.Error("C or D evicted unexpectedly")
	}
	if access(256, false) {
		t.Error("B survived despite being least recently used")
	}
}

func TestWritebackCounting(t *testing.T) {
	c, access := member(t, Config{SizeBytes: 64, BlockBytes: 64, Assoc: 1})
	access(0, true)    // dirty
	access(64, false)  // evicts dirty block -> writeback
	access(128, false) // evicts clean block -> no writeback
	s := c.Stats()
	if s.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", s.Writebacks)
	}
}

func TestWriteAllocateMarksDirty(t *testing.T) {
	c, access := member(t, Config{SizeBytes: 64, BlockBytes: 64, Assoc: 1})
	access(0, false) // clean fill
	access(0, true)  // hit, dirties the line
	access(64, false)
	if c.Stats().Writebacks != 1 {
		t.Error("write hit did not dirty the line")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad config did not panic")
		}
	}()
	MustNew(Config{SizeBytes: 3, BlockBytes: 64, Assoc: 1})
}

// TestLRUInclusionProperty checks the stack property of LRU: with the
// same number of sets, adding ways can never increase the miss count on
// any access stream.
func TestLRUInclusionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		// Same sets (8), growing ways, each the one member of its own
		// bank.
		c1, access1 := member(t, Config{SizeBytes: 8 * 64 * 1, BlockBytes: 64, Assoc: 1})
		c2, access2 := member(t, Config{SizeBytes: 8 * 64 * 2, BlockBytes: 64, Assoc: 2})
		c4, access4 := member(t, Config{SizeBytes: 8 * 64 * 4, BlockBytes: 64, Assoc: 4})
		for i := 0; i < 4000; i++ {
			addr := uint32(src.Intn(1<<14)) &^ 3
			w := src.Intn(4) == 0
			access1(addr, w)
			access2(addr, w)
			access4(addr, w)
		}
		return c2.Stats().Misses <= c1.Stats().Misses &&
			c4.Stats().Misses <= c2.Stats().Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestMissBoundsProperty checks structural invariants on random streams:
// misses never exceed accesses, writebacks never exceed misses (a line
// is written back at most once per fill).
func TestMissBoundsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		c, access := member(t, Config{SizeBytes: 2048, BlockBytes: 32, Assoc: 2})
		for i := 0; i < 3000; i++ {
			access(uint32(src.Intn(1<<13))&^3, src.Intn(2) == 0)
		}
		s := c.Stats()
		return s.Misses <= s.Accesses && s.Writebacks <= s.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("zero stats should have zero miss rate")
	}
	s = Stats{Accesses: 4, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Errorf("miss rate = %g, want 0.25", s.MissRate())
	}
}
