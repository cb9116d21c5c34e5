package cache_test

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"jmtam/internal/cache"
	"jmtam/internal/cache/cachetest"
	"jmtam/internal/mem"
)

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
			addr |= cache.RefWrite
		}
		refs[i] = addr
	}
	return refs
}

// TestAccessMatchesReferenceModel drives an identical stream through a
// one-member bank and the reference model across stacks four deep and
// deeper, requiring identical statistics.
func TestAccessMatchesReferenceModel(t *testing.T) {
	refs := refStream(60000)
	for _, assoc := range []int{1, 2, 4, 8, 16} {
		for _, size := range []int{1024, 8192} {
			cfg := cache.Config{SizeBytes: size, BlockBytes: 64, Assoc: assoc}
			t.Run(fmt.Sprintf("%v", cfg), func(t *testing.T) {
				ref := cachetest.New(cfg)
				for _, w := range refs {
					ref.Access(w&^3, w&cache.RefWrite != 0)
				}
				banked := cache.MustNew(cfg)
				bank, err := cache.BankOf(banked)
				if err != nil {
					t.Fatal(err)
				}
				// Batch in uneven slices to exercise chunk boundaries; the
				// bank overwrites its batch, so pass a copy.
				for off := 0; off < len(refs); {
					end := min(off+1000+off%777, len(refs))
					bank.AccessBatch(slices.Clone(refs[off:end]), end-off)
					off = end
				}
				if banked.Stats() != ref.Stats() {
					t.Errorf("banked %+v != reference %+v", banked.Stats(), ref.Stats())
				}
			})
		}
	}
}

// TestAccessBatchFetchMatchesScalar checks the bank's read-only fetch
// kernels, four deep and generic, against the reference model's reads:
// a one-member bank per associativity, in the replay kernel's 4K
// batches.
func TestAccessBatchFetchMatchesScalar(t *testing.T) {
	refs := refStream(60000)
	for i := range refs {
		refs[i] &^= 3 // fetch addresses carry no flag bits
	}
	for _, assoc := range []int{1, 2, 4, 8} {
		cfg := cache.Config{SizeBytes: 4096, BlockBytes: 32, Assoc: assoc}
		t.Run(fmt.Sprintf("assoc=%d", assoc), func(t *testing.T) {
			ref := cachetest.New(cfg)
			for _, w := range refs {
				ref.Access(w, false)
			}
			banked := cache.MustNew(cfg)
			bank, err := cache.BankOf(banked)
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; off < len(refs); off += 4096 {
				batch := slices.Clone(refs[off:min(off+4096, len(refs))])
				bank.AccessBatchFetch(batch, len(batch))
			}
			if ref.Stats() != banked.Stats() {
				t.Errorf("fetch bank %+v != reference %+v", banked.Stats(), ref.Stats())
			}
		})
	}
}

// localityStream generates packed references shaped like a replayed
// trace, one shape to each §3.1 class segment: sequential runs in user
// code, read/write reuse of a few hot heap blocks (runs of one block,
// so batch boundaries split same-block write runs), conflicting strides
// in system data that share a set in every geometry, and scatter over
// system code.
func localityStream(n int) []uint32 {
	refs := make([]uint32, 0, n)
	state := uint32(0x6A09E667)
	next := func(m uint32) uint32 {
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		return state % m
	}
	pc := mem.UserCodeBase + 0x1000
	for len(refs) < n {
		switch next(4) {
		case 0: // sequential run
			for j := next(48); j > 0; j-- {
				pc += 4
				refs = append(refs, pc)
			}
		case 1: // reuse of a few hot blocks, reads and writes mixed
			base := mem.HeapBase + next(4)*256
			for j := next(12); j > 0; j-- {
				refs = append(refs, base+next(16)*4|next(3)/2*cache.RefWrite)
			}
		case 2: // conflicts: the same set in every geometry below 256 KB
			refs = append(refs, mem.SysDataBase+next(8)<<18+next(4)*4|next(2)*cache.RefWrite)
		default: // scatter
			refs = append(refs, next(1<<20)&^3|next(4)/3*cache.RefWrite)
		}
	}
	return refs[:n]
}

// attributed is what a reference-model replay of one geometry yields:
// its statistics and its misses by kind (0 read, 1 write) and class.
type attributed struct {
	stats  cache.Stats
	byKind [2][mem.NumClasses]uint64
}

// referenceOf replays packed references (write flag in bit 0) through
// the reference model of each geometry, attributing each miss.
func referenceOf(grid []cache.Config, refs []uint32) []attributed {
	out := make([]attributed, len(grid))
	for i, cfg := range grid {
		ref := cachetest.New(cfg)
		for _, w := range refs {
			if !ref.Access(w&^3, w&cache.RefWrite != 0) {
				out[i].byKind[w&cache.RefWrite][mem.Classify(w&^3)]++
			}
		}
		out[i].stats = ref.Stats()
	}
	return out
}

// TestBankMatchesScalar drives banks over three grids with
// locality-shaped streams cut into batches of random length, and
// requires every member's statistics to equal the reference model's:
// the Table-2 grid (one block size, 10 stages four deep); a mixed grid
// with 8-64 B blocks, a one-set cache, 8- and 16-way caches and one
// geometry listed twice (four block-size groups); and one stage of 16
// sets of 64 B holding every power-of-two associativity from 1 to 256
// ways plus a duplicate member, so the generic kernel's counts serve
// nine associativities at once. An attributing bank over the same grid
// takes the same batches, each reference's kind in bit 1, and its
// members must also match the reference's misses by kind and class.
func TestBankMatchesScalar(t *testing.T) {
	var table2, allWays []cache.Config
	for kb := 1; kb <= 128; kb *= 2 {
		for _, a := range []int{1, 2, 4} {
			table2 = append(table2, cache.Config{SizeBytes: kb << 10, BlockBytes: 64, Assoc: a})
		}
	}
	for a := 1; a <= 256; a *= 2 {
		allWays = append(allWays, cache.Config{SizeBytes: a << 10, BlockBytes: 64, Assoc: a})
	}
	allWays = append(allWays, cache.Config{SizeBytes: 32 << 10, BlockBytes: 64, Assoc: 32})
	mixed := []cache.Config{
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
		grid []cache.Config
	}{{"table2", table2}, {"mixed", mixed}, {"allways", allWays}} {
		grid := g.grid
		for _, fetch := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/fetch=%v", g.name, fetch), func(t *testing.T) {
				refs := localityStream(200000)
				for i, w := range refs {
					if fetch {
						refs[i] = w &^ 3
					} else {
						refs[i] = w | w&cache.RefWrite<<1
					}
				}
				want := referenceOf(grid, refs)
				banks := make([]*cache.Bank, 2)
				members := make([][]*cache.Cache, 2)
				for k, bankOf := range []func(...*cache.Cache) (*cache.Bank, error){cache.BankOf, cache.AttributingBankOf} {
					members[k] = make([]*cache.Cache, len(grid))
					for i, cfg := range grid {
						members[k][i] = cache.MustNew(cfg)
					}
					var err error
					if banks[k], err = bankOf(members[k]...); err != nil {
						t.Fatal(err)
					}
				}
				state := uint32(12345)
				for off := 0; off < len(refs); {
					state = state*1664525 + 1013904223
					end := min(off+int(state>>20)%700, len(refs))
					for _, b := range banks {
						batch := slices.Clone(refs[off:end])
						if fetch {
							b.AccessBatchFetch(batch, end-off)
						} else {
							b.AccessBatch(batch, end-off)
						}
					}
					off = end
				}
				for i, cfg := range grid {
					if c := members[0][i]; c.Stats() != want[i].stats {
						t.Errorf("%v: bank %+v, reference %+v", cfg, c.Stats(), want[i].stats)
					}
					c := members[1][i]
					reads, writes := c.ClassMisses()
					if c.Stats() != want[i].stats || reads != want[i].byKind[0] || writes != want[i].byKind[1] {
						t.Errorf("%v: attributing bank %+v, reads %v, writes %v; reference %+v, reads %v, writes %v",
							cfg, c.Stats(), reads, writes, want[i].stats, want[i].byKind[0], want[i].byKind[1])
					}
				}
			})
		}
	}
}

// TestBankOfRefusesUsedCache checks that a bank, which starts empty,
// refuses a member that another bank has already driven.
func TestBankOfRefusesUsedCache(t *testing.T) {
	fresh := cache.MustNew(cache.Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1})
	used := cache.MustNew(cache.Config{SizeBytes: 8192, BlockBytes: 64, Assoc: 4})
	b, err := cache.BankOf(used)
	if err != nil {
		t.Fatal(err)
	}
	b.AccessBatch([]uint32{0}, 1)
	for name, bankOf := range map[string]func(...*cache.Cache) (*cache.Bank, error){
		"BankOf": cache.BankOf, "AttributingBankOf": cache.AttributingBankOf,
	} {
		if b, err := bankOf(fresh, used); err == nil || b != nil {
			t.Errorf("%s(fresh, used) = %v, %v; want an error", name, b, err)
		}
	}
	if _, err := cache.BankOf(fresh); err != nil {
		t.Errorf("BankOf(fresh): %v", err)
	}
}

// FuzzBankMatchesScalar decodes the fuzz input into a small grid, a
// reference stream and its batch cuts, and requires every member of a
// bank to match the reference model. The first byte's bit 7 makes the
// stream a read-only fetch stream, and the rest is the grid's size,
// less one (mod 6); each geometry is one byte: block size 8 << (bits
// 1:0), 1 << (bits 4:2) sets and 1 << (bits 7:5 mod 6) ways, so
// geometries repeat and stages range from direct-mapped to 32 ways.
// Each 3-byte record is a flag byte and a word address: bit 0 makes the
// run writes (reads in a fetch stream), bit 1 ends the batch after it,
// and bits 7:2 extend it over that many more consecutive words.
// Decoding stops at 8K references.
func FuzzBankMatchesScalar(f *testing.F) {
	f.Add([]byte{0, 0x27, 0x04, 0x00, 0x10})
	f.Add([]byte{0x81, 0x27, 0x8b, 0xfc, 0x00, 0x10, 0x02, 0x00, 0x30, 0x00, 0x00, 0x10})
	f.Add([]byte{5, 0x0b, 0x2b, 0x4b, 0x8b, 0xab, 0x2b, 0x7c, 0x00, 0x10, 0x03, 0x04, 0x20, 0x41, 0x00, 0x11})
	// A read ends a batch; a write to the same word starts the next, so
	// the write's merge target is already consumed, and conflicting
	// reads then evict the line. Stages: 2 sets (four deep), 4 sets (16
	// deep) and 8 sets (four deep), all of 8-byte blocks.
	edge := []byte{3, 0x04, 0x48, 0x2c, 0x88, 0x02, 0x00, 0x20, 0x01, 0x00, 0x20}
	for k := byte(1); k <= 20; k++ {
		edge = append(edge, 0x00, 0x00, 0x20+k)
	}
	f.Add(edge)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) < 2+int(data[0]&0x7f)%6 {
			return
		}
		fetch, n := data[0]&0x80 != 0, 1+int(data[0]&0x7f)%6
		members, refs := make([]*cache.Cache, n), make([]*cachetest.Cache, n)
		for i, g := range data[1 : 1+n] {
			block, ways := 8<<(g&3), 1<<(g>>5%6)
			cfg := cache.Config{SizeBytes: block << (g >> 2 & 7) * ways, BlockBytes: block, Assoc: ways}
			members[i], refs[i] = cache.MustNew(cfg), cachetest.New(cfg)
		}
		bank, err := cache.BankOf(members...)
		if err != nil {
			t.Fatal(err)
		}
		access, flags := bank.AccessBatch, cache.RefWrite
		if fetch {
			access, flags = bank.AccessBatchFetch, 0
		}
		var batch []uint32
		total := 0
		for data = data[1+n:]; len(data) >= 3 && total < 1<<13; data = data[3:] {
			word := uint32(binary.LittleEndian.Uint16(data[1:3]))
			for j := uint32(0); j <= uint32(data[0]>>2); j++ {
				w := (word+j)<<2&0x3fffc | uint32(data[0])&flags
				for _, r := range refs {
					r.Access(w&^3, w&cache.RefWrite != 0)
				}
				batch = append(batch, w)
				total++
			}
			if data[0]&2 != 0 {
				access(batch, len(batch))
				batch = batch[:0]
			}
		}
		access(batch, len(batch))
		for i, c := range members {
			if c.Stats() != refs[i].Stats() {
				t.Fatalf("%v: bank %+v, reference %+v", c.Config(), c.Stats(), refs[i].Stats())
			}
		}
	})
}
