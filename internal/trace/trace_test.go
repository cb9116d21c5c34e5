package trace

import (
	"testing"

	"jmtam/internal/cache"
	"jmtam/internal/mem"
)

func TestClassifiedCounting(t *testing.T) {
	var c Recording
	c.Fetch(mem.SysCodeBase)
	c.Fetch(mem.UserCodeBase)
	c.Fetch(mem.UserCodeBase + 4)
	c.Read(mem.SysDataBase)
	c.Read(mem.HeapBase)
	c.Write(mem.FrameBase)
	if c.Fetches[mem.ClassSysCode] != 1 || c.Fetches[mem.ClassUserCode] != 2 {
		t.Errorf("fetch classification wrong: %v", c.Fetches)
	}
	if c.Reads[mem.ClassSysData] != 1 || c.Reads[mem.ClassUserData] != 1 {
		t.Errorf("read classification wrong: %v", c.Reads)
	}
	if c.Writes[mem.ClassUserData] != 1 {
		t.Errorf("write classification wrong: %v", c.Writes)
	}
	if c.TotalFetches() != 3 || c.TotalReads() != 2 || c.TotalWrites() != 1 {
		t.Error("totals wrong")
	}
}

// TestFanOut replays one stream through two pairs at once: both see
// every reference.
func TestFanOut(t *testing.T) {
	var c Recording
	c.Fetch(mem.UserCodeBase)
	c.Read(mem.HeapBase)
	c.Write(mem.HeapBase + 4)
	pairs := newPairs(t, []cache.Config{
		{SizeBytes: 1024, BlockBytes: 64, Assoc: 1},
		{SizeBytes: 8192, BlockBytes: 64, Assoc: 4},
	})
	c.ReplayAll(pairs)
	for i, p := range pairs {
		if p.I.Stats().Accesses != 1 {
			t.Errorf("pair %d: I accesses = %d", i, p.I.Stats().Accesses)
		}
		if p.D.Stats().Accesses != 2 {
			t.Errorf("pair %d: D accesses = %d", i, p.D.Stats().Accesses)
		}
	}
	// The write hit the block just read: one D miss, no writeback yet.
	p1 := pairs[0]
	if p1.D.Stats().Misses != 1 {
		t.Errorf("D misses = %d, want 1", p1.D.Stats().Misses)
	}
	if p1.Misses() != 2 { // 1 I + 1 D
		t.Errorf("pair misses = %d, want 2", p1.Misses())
	}
	if p1.Writebacks() != 0 {
		t.Errorf("writebacks = %d, want 0", p1.Writebacks())
	}
}

func TestNewPairRejectsBadGeometry(t *testing.T) {
	if _, err := NewPair(cache.Config{SizeBytes: 100, BlockBytes: 64, Assoc: 1}); err == nil {
		t.Error("NewPair accepted bad geometry")
	}
}
