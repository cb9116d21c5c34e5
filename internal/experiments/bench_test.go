package experiments

import (
	"testing"

	"jmtam/internal/cache"
	"jmtam/internal/core"
)

// BenchmarkRecord measures the record path alone: the paper-argument
// one-node simulations of the twelve MD and AM recordings of a paper
// sweep, each with a trace recording attached, and no replay. Run it on
// one goroutine for a profile of the interpreter and its reference
// sink:
//
//	go test -run '^$' -bench Record -cpu 1 -cpuprofile f ./internal/experiments/
func BenchmarkRecord(b *testing.B) {
	b.ReportAllocs()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		for _, w := range PaperWorkloads() {
			for _, impl := range []core.Impl{core.ImplMD, core.ImplAM} {
				r, rec, err := RecordOne(w, impl, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				instrs += r.Instructions
				rec.Release()
			}
		}
	}
	b.ReportMetric(float64(instrs)/1e6/b.Elapsed().Seconds(), "Minstr/s")
}

// BenchmarkNodeRatio measures a node-ratio pass as the mesh benchmark
// runs one, at quick scale: md, am, offload and aa on an 8-node mesh
// through one geometry, am and offload sharing one simulation.
func BenchmarkNodeRatio(b *testing.B) {
	b.ReportAllocs()
	impls := []core.Impl{core.ImplMD, core.ImplAM, core.ImplOffload, core.ImplAA}
	geom := cache.Config{SizeBytes: 8 << 10, BlockBytes: 64, Assoc: 4}
	for i := 0; i < b.N; i++ {
		if _, err := NodeRatioSweep(QuickWorkloads(), impls, []int{8}, geom, 24, core.Options{}, 0); err != nil {
			b.Fatal(err)
		}
	}
}
