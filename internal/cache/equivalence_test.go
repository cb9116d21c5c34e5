package cache

import (
	"fmt"
	"testing"
)

// refCache is an obviously-correct reference model: per-way structs,
// uint64 timestamps, first-invalid-else-LRU victim choice — the layout
// the SoA/rank implementation replaced. Statistics must match exactly:
// physical way choice among invalid ways is unobservable, so the two
// victim policies are stats-equivalent.
type refCache struct {
	ways []struct {
		tag   uint32
		valid bool
		dirty bool
		used  uint64
	}
	assoc    int
	setMask  uint32
	blkShift uint32
	tick     uint64
	stats    Stats
}

func newRefCache(cfg Config) *refCache {
	nSets := cfg.SizeBytes / (cfg.BlockBytes * cfg.Assoc)
	bs := uint32(0)
	for 1<<bs < cfg.BlockBytes {
		bs++
	}
	r := &refCache{assoc: cfg.Assoc, setMask: uint32(nSets - 1), blkShift: bs}
	r.ways = make([]struct {
		tag   uint32
		valid bool
		dirty bool
		used  uint64
	}, nSets*cfg.Assoc)
	return r
}

func (r *refCache) access(addr uint32, write bool) bool {
	r.tick++
	r.stats.Accesses++
	blk := addr >> r.blkShift
	set := int(blk&r.setMask) * r.assoc
	for i := set; i < set+r.assoc; i++ {
		if r.ways[i].valid && r.ways[i].tag == blk {
			r.ways[i].used = r.tick
			if write {
				r.ways[i].dirty = true
			}
			return true
		}
	}
	r.stats.Misses++
	v := -1
	for i := set; i < set+r.assoc; i++ {
		if !r.ways[i].valid {
			v = i
			break
		}
	}
	if v < 0 {
		v = set
		for i := set + 1; i < set+r.assoc; i++ {
			if r.ways[i].used < r.ways[v].used {
				v = i
			}
		}
	}
	if r.ways[v].valid && r.ways[v].dirty {
		r.stats.Writebacks++
	}
	r.ways[v] = struct {
		tag   uint32
		valid bool
		dirty bool
		used  uint64
	}{tag: blk, valid: true, dirty: write, used: r.tick}
	return false
}

// refStream generates a deterministic mixed-locality address stream.
func refStream(n int) []uint32 {
	refs := make([]uint32, n)
	state := uint32(0x9E3779B9)
	for i := range refs {
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		var addr uint32
		switch i % 5 {
		case 0, 1: // hot loop
			addr = uint32(i%512) * 4
		case 2: // medium working set
			addr = (state % (1 << 14)) &^ 3
		default: // cold scatter
			addr = (state % (1 << 24)) &^ 3
		}
		if state&0x3 == 0 {
			addr |= RefWrite
		}
		refs[i] = addr
	}
	return refs
}

// TestAccessMatchesReferenceModel drives an identical stream through
// the SoA implementation (scalar and batch) and the timestamp reference
// model across every specialized and generic associativity, requiring
// identical statistics.
func TestAccessMatchesReferenceModel(t *testing.T) {
	refs := refStream(60000)
	for _, assoc := range []int{1, 2, 3, 4, 8} {
		for _, size := range []int{1024, 8192} {
			cfg := Config{SizeBytes: size, BlockBytes: 64, Assoc: assoc}
			t.Run(fmt.Sprintf("%v", cfg), func(t *testing.T) {
				ref := newRefCache(cfg)
				scalar := MustNew(cfg)
				batched := MustNew(cfg)
				for _, w := range refs {
					ref.access(w&^3, w&RefWrite != 0)
					scalar.Access(w&^3, w&RefWrite != 0)
				}
				// Batch in uneven slices to exercise chunk boundaries.
				for off := 0; off < len(refs); {
					end := off + 1000 + off%777
					if end > len(refs) {
						end = len(refs)
					}
					batched.AccessBatch(refs[off:end])
					off = end
				}
				if scalar.Stats() != ref.stats {
					t.Errorf("scalar %+v != reference %+v", scalar.Stats(), ref.stats)
				}
				if batched.Stats() != ref.stats {
					t.Errorf("batched %+v != reference %+v", batched.Stats(), ref.stats)
				}
			})
		}
	}
}

// TestAccessBatchFetchMatchesScalar checks the read-only fetch kernels
// against scalar reads on a never-written cache.
func TestAccessBatchFetchMatchesScalar(t *testing.T) {
	refs := refStream(60000)
	for i := range refs {
		refs[i] &^= 3 // fetch addresses carry no flag bits
	}
	for _, assoc := range []int{1, 2, 4, 8} {
		cfg := Config{SizeBytes: 4096, BlockBytes: 32, Assoc: assoc}
		t.Run(fmt.Sprintf("assoc=%d", assoc), func(t *testing.T) {
			scalar := MustNew(cfg)
			batched := MustNew(cfg)
			for _, w := range refs {
				scalar.Access(w, false)
			}
			for off := 0; off < len(refs); off += 4096 {
				end := off + 4096
				if end > len(refs) {
					end = len(refs)
				}
				batched.AccessBatchFetch(refs[off:end])
			}
			if scalar.Stats() != batched.Stats() {
				t.Errorf("fetch batch %+v != scalar %+v", batched.Stats(), scalar.Stats())
			}
		})
	}
}

// localityStream generates packed references shaped like a replayed
// trace: sequential runs, read/write reuse of a few hot blocks (runs of
// one block, so batch boundaries split same-block write runs), and
// conflicting strides that share a set in every geometry.
func localityStream(n int) []uint32 {
	refs := make([]uint32, 0, n)
	state := uint32(0x6A09E667)
	next := func(m uint32) uint32 {
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		return state % m
	}
	pc := uint32(0x1000)
	for len(refs) < n {
		switch next(4) {
		case 0: // sequential run
			for j := next(48); j > 0; j-- {
				pc += 4
				refs = append(refs, pc)
			}
		case 1: // reuse of a few hot blocks, reads and writes mixed
			base := 0x40_0000 + next(4)*256
			for j := next(12); j > 0; j-- {
				refs = append(refs, base+next(16)*4|next(3)/2*RefWrite)
			}
		case 2: // conflicts: the same set in every geometry below 256 KB
			refs = append(refs, 0x80_0000+next(8)<<18+next(4)*4|next(2)*RefWrite)
		default: // scatter
			refs = append(refs, next(1<<20)&^3|next(4)/3*RefWrite)
		}
	}
	return refs[:n]
}

// TestBankMatchesScalar drives banks over two grids with locality-shaped
// streams cut into batches of random length, and requires every member's
// statistics to equal a twin driven by per-reference Access: the
// Table-2 grid (one block size, 10 stages) and a mixed grid with 8-64 B
// blocks, a one-set cache, 8- and 16-way caches and one geometry listed
// twice (four block-size groups).
func TestBankMatchesScalar(t *testing.T) {
	var table2 []Config
	for kb := 1; kb <= 128; kb *= 2 {
		for _, a := range []int{1, 2, 4} {
			table2 = append(table2, Config{SizeBytes: kb << 10, BlockBytes: 64, Assoc: a})
		}
	}
	mixed := []Config{
		{SizeBytes: 1024, BlockBytes: 64, Assoc: 16}, // one set
		{SizeBytes: 4096, BlockBytes: 8, Assoc: 1},
		{SizeBytes: 2048, BlockBytes: 16, Assoc: 8},
		{SizeBytes: 8192, BlockBytes: 32, Assoc: 4},
		{SizeBytes: 8192, BlockBytes: 32, Assoc: 4},
		{SizeBytes: 16384, BlockBytes: 64, Assoc: 16},
		{SizeBytes: 512, BlockBytes: 8, Assoc: 2},
		{SizeBytes: 32768, BlockBytes: 16, Assoc: 1},
	}
	for _, g := range []struct {
		name string
		grid []Config
	}{{"table2", table2}, {"mixed", mixed}} {
		grid := g.grid
		for _, fetch := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/fetch=%v", g.name, fetch), func(t *testing.T) {
				refs := localityStream(200000)
				if fetch {
					for i := range refs {
						refs[i] &^= 3
					}
				}
				twins := make([]*Cache, len(grid))
				members := make([]*Cache, len(grid))
				for i, cfg := range grid {
					twins[i], members[i] = MustNew(cfg), MustNew(cfg)
					for _, w := range refs {
						twins[i].Access(w&^3, w&RefWrite != 0)
					}
				}
				bank := BankOf(members...)
				state := uint32(12345)
				for off := 0; off < len(refs); {
					state = state*1664525 + 1013904223
					end := min(off+int(state>>20)%700, len(refs))
					if fetch {
						bank.AccessBatchFetch(refs[off:end])
					} else {
						bank.AccessBatch(refs[off:end])
					}
					off = end
				}
				for i, c := range members {
					if c.Stats() != twins[i].Stats() {
						t.Errorf("%v: bank %+v, scalar %+v", grid[i], c.Stats(), twins[i].Stats())
					}
				}
			})
		}
	}
}
