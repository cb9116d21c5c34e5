package cache

import (
	"slices"
	"testing"
)

// benchRefs builds a packed reference stream (write flag in bit 0) with
// loopy locality plus a conflict-prone stride, deterministic across runs.
func benchRefs(n int) []uint32 {
	refs := make([]uint32, n)
	state := uint32(0x2545F491)
	for i := range refs {
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		var addr uint32
		switch {
		case i%4 != 3: // loop-style reuse over a 16 KB window
			addr = uint32(i%4096) * 4
		default: // scattered heap touch
			addr = (state % (1 << 22)) &^ 3
		}
		if state&0x7 == 0 {
			addr |= RefWrite
		}
		refs[i] = addr
	}
	return refs
}

// BenchmarkBank measures a bank over the paper's 24-geometry grid (ten
// stages four deep) on the data stream and on a read-only fetch
// stream, in the replay kernel's 4K-reference batches. Its synthetic
// stream cycles through a few blocks at fixed strides, so the bank's
// branches predict well here as they do not on a real stream; a
// change that takes branches out of the probe can read slower here
// and still be faster on the paper's streams (BenchmarkReplayPaper in
// internal/experiments).
func BenchmarkBank(b *testing.B) {
	data := benchRefs(1 << 16)
	fetch := slices.Clone(data)
	for i := range fetch {
		fetch[i] &^= 3 // fetch addresses carry no flag bits
	}
	for _, s := range []struct {
		name string
		refs []uint32
	}{{"data", data}, {"fetch", fetch}} {
		b.Run(s.name, func(b *testing.B) {
			var grid []*Cache
			for kb := 1; kb <= 128; kb *= 2 {
				for _, a := range []int{1, 2, 4} {
					grid = append(grid, MustNew(Config{SizeBytes: kb << 10, BlockBytes: 64, Assoc: a}))
				}
			}
			bank, err := BankOf(grid...)
			if err != nil {
				b.Fatal(err)
			}
			access := bank.AccessBatch
			if s.name == "fetch" {
				access = bank.AccessBatchFetch
			}
			batch := make([]uint32, 1<<12)
			b.SetBytes(int64(4 * len(s.refs)))
			for i := 0; i < b.N; i++ {
				for off := 0; off < len(s.refs); off += len(batch) {
					copy(batch, s.refs[off:]) // the bank overwrites its batch
					access(batch, len(batch))
				}
			}
		})
	}
}
