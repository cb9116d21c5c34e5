package cache_test

import (
	"math/rand"
	"testing"

	"jmtam/internal/cache"
	"jmtam/internal/cache/cachetest"
)

// A zero-entry victim hierarchy must be the plain direct-mapped cache:
// misses and writebacks identical to the reference model's on an
// arbitrary stream.
func TestVictimZeroEntriesMatchesDirectMapped(t *testing.T) {
	cfg := cache.Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1}
	v, err := cache.NewVictim(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := cachetest.New(cfg)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		addr := uint32(rng.Intn(1<<14)) &^ 3
		write := rng.Intn(3) == 0
		v.Access(addr, write)
		c.Access(addr, write)
	}
	vs, cs := v.Stats(), c.Stats()
	if vs.Misses != cs.Misses || vs.Writebacks != cs.Writebacks || vs.Accesses != cs.Accesses {
		t.Errorf("zero-entry victim diverged from direct-mapped: victim %+v, cache %+v", vs, cs)
	}
	if vs.VictimHits != 0 {
		t.Errorf("zero-entry victim reported %d victim hits", vs.VictimHits)
	}
}

// One victim entry converts an alternating two-address conflict (the
// pathological direct-mapped pattern) into swaps after the two
// compulsory misses.
func TestVictimRecoversConflictMisses(t *testing.T) {
	cfg := cache.Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1}
	v, err := cache.NewVictim(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := uint32(0)
	b := uint32(cfg.SizeBytes) // same set, different tag
	for i := 0; i < 50; i++ {
		v.Access(a, false)
		v.Access(b, false)
	}
	s := v.Stats()
	if s.Misses != 2 {
		t.Errorf("misses = %d, want 2 (compulsory only)", s.Misses)
	}
	if s.VictimHits != 98 {
		t.Errorf("victim hits = %d, want 98", s.VictimHits)
	}
}

// A larger LRU victim buffer never misses more than a smaller one
// (stack inclusion), and a dirty line evicted out of the buffer writes
// back exactly once.
func TestVictimMonotoneAndWritebacks(t *testing.T) {
	cfg := cache.Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1}
	rng := rand.New(rand.NewSource(11))
	stream := make([]uint32, 30000)
	for i := range stream {
		stream[i] = uint32(rng.Intn(1<<13)) &^ 3
	}
	prev := ^uint64(0)
	for _, n := range []int{0, 1, 2, 4, 8} {
		v, err := cache.NewVictim(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		for i, addr := range stream {
			v.Access(addr, i%4 == 0)
		}
		m := v.Stats().Misses
		if m > prev {
			t.Errorf("entries=%d: misses %d exceed smaller buffer's %d", n, m, prev)
		}
		prev = m
	}

	// Dirty writeback through the buffer: write a, conflict it out of
	// main into the buffer, then push enough clean lines through the
	// set to evict it from the buffer too.
	v, err := cache.NewVictim(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	v.Access(0, true)
	v.Access(uint32(cfg.SizeBytes), false)   // a -> buffer (dirty)
	v.Access(uint32(2*cfg.SizeBytes), false) // prior line -> buffer, evicts dirty a
	if wb := v.Stats().Writebacks; wb != 1 {
		t.Errorf("writebacks = %d, want 1", wb)
	}
}
