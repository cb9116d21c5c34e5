package programs

import (
	"fmt"
	"testing"

	"jmtam/internal/cluster"
	"jmtam/internal/core"
	"jmtam/internal/machine"
	"jmtam/internal/netsim"
	"jmtam/internal/stats"
	"jmtam/internal/trace"
)

// smallArgs are reduced benchmark arguments for multi-node tests.
var smallArgs = map[string]int{
	"mmt": 8, "qs": 24, "dtw": 4, "paraffins": 8, "wavefront": 8, "ss": 16,
}

// recordingSig flattens a reference recording into comparable values.
func recordingSig(r *trace.Recording) []uint64 {
	sig := make([]uint64, 0, r.Len())
	r.Do(func(k trace.Kind, addr uint32) {
		sig = append(sig, uint64(k)<<32|uint64(addr))
	})
	return sig
}

// sameStream fails the test at the first entry where two recordings of
// one stream diverge.
func sameStream(t *testing.T, what string, got, want *trace.Recording) {
	t.Helper()
	g, w := recordingSig(got), recordingSig(want)
	if len(g) != len(w) {
		t.Fatalf("%s length: lockstep %d, own loop %d", what, len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("%s diverges at entry %d of %d: lockstep %#x, own loop %#x",
				what, i, len(w), g[i], w[i])
		}
	}
}

// TestMultinodeSmoke runs every benchmark unmodified under every
// registered backend on 1-, 2-, 4- and 8-node meshes with both
// placement policies; each run's Verify checks the result against the
// pure-Go reference.
func TestMultinodeSmoke(t *testing.T) {
	for _, spec := range All() {
		for _, b := range core.Backends() {
			for _, n := range []int{1, 2, 4, 8} {
				for _, pl := range []core.Placement{core.PlaceRoundRobin, core.PlaceLocal} {
					cs, err := core.BuildCluster(b.Impl, spec.Build(smallArgs[spec.Name]),
						core.Options{Nodes: n, Placement: pl, MaxInstructions: 50_000_000})
					if err != nil {
						t.Fatalf("%s/%s n=%d %v build: %v", spec.Name, b.Name, n, pl, err)
					}
					if err := cs.Run(); err != nil {
						t.Errorf("%s/%s n=%d %v run: %v", spec.Name, b.Name, n, pl, err)
					}
					cs.Close()
				}
			}
		}
	}
}

// TestClusterN1MatchesUniprocessor pins the one-node fast path against
// the lockstep cluster loop it replaces: for every benchmark under every
// registered backend, a one-node ClusterSim (which runs the machine's
// own loop) and cluster.New driving the single machine of a core.Build
// simulation must execute the byte-identical reference and NIC streams
// with the same Counts, the same instruction, high-priority and opcode
// counts, granularity statistics and result, and the lockstep run must
// take exactly instructions + 1 ticks — the value ClusterSim.Ticks
// reports. The one-node run goes in stretches, the lockstep one an
// instruction at a time.
func TestClusterN1MatchesUniprocessor(t *testing.T) {
	for _, spec := range All() {
		for _, b := range core.Backends() {
			spec, impl := spec, b.Impl
			t.Run(fmt.Sprintf("%s/%s", spec.Name, impl), func(t *testing.T) {
				t.Parallel()
				nic := impl.Caps().NICInlets
				cs, err := core.BuildCluster(impl, spec.Build(smallArgs[spec.Name]), core.Options{})
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				defer cs.Close()
				if cs.C != nil {
					t.Fatal("one-node simulation built a lockstep cluster")
				}
				ownRec, ownNIC := &trace.Recording{}, &trace.Recording{}
				cs.Sims[0].Tracer = ownRec
				if nic {
					cs.Sims[0].NICTracer = ownNIC
				}
				if err := cs.Run(); err != nil {
					t.Fatalf("run: %v", err)
				}

				// The reference: the lockstep cluster loop over one machine,
				// wired by hand.
				ref, err := core.Build(impl, spec.Build(smallArgs[spec.Name]), core.Options{})
				if err != nil {
					t.Fatalf("build reference: %v", err)
				}
				defer ref.Close()
				refRec, refNIC := &trace.Recording{}, &trace.Recording{}
				if nic {
					ref.M.SetTracer(refRec, refNIC)
				} else {
					ref.M.SetTracer(refRec, nil)
				}
				ref.M.SetObserver(ref.Gran)
				cl, err := cluster.New([]*machine.Machine{ref.M}, netsim.DefaultConfig(1))
				if err != nil {
					t.Fatalf("cluster: %v", err)
				}
				if err := cl.Run(0); err != nil {
					t.Fatalf("run reference: %v", err)
				}

				if got, want := ref.M.Instructions(), cs.Instructions(); got != want {
					t.Errorf("instructions: lockstep %d, own loop %d", got, want)
				}
				if got, want := ref.M.HighInstructions(), cs.HighInstructions(); got != want {
					t.Errorf("high-priority instructions: lockstep %d, own loop %d", got, want)
				}
				if got, want := ref.M.OpCounts(), cs.Sims[0].M.OpCounts(); got != want {
					t.Errorf("opcode counts: lockstep %v, own loop %v", got, want)
				}
				ref.Gran.TotalInstrs = ref.M.Instructions()
				ref.Gran.Finish()
				if got, want := totals(ref.Gran), totals(cs.MergedGran()); got != want {
					t.Errorf("granularity: lockstep %+v, own loop %+v", got, want)
				}
				if refRec.Counts != ownRec.Counts || refNIC.Counts != ownNIC.Counts {
					t.Errorf("reference counts: lockstep %+v and NIC %+v, own loop %+v and NIC %+v",
						refRec.Counts, refNIC.Counts, ownRec.Counts, ownNIC.Counts)
				}
				if got, want := cl.Tick(), ref.M.Instructions()+1; got != want {
					t.Errorf("lockstep ticks %d, want instructions + 1 = %d", got, want)
				}
				if got, want := cs.Ticks(), cl.Tick(); got != want {
					t.Errorf("Ticks() = %d, lockstep cluster took %d", got, want)
				}
				sameStream(t, "reference stream", refRec, ownRec)
				sameStream(t, "NIC stream", refNIC, ownNIC)
				if got, want := ref.Host.Result(0), cs.Host.Result(0); got != want {
					t.Errorf("result: lockstep %v, own loop %v", got, want)
				}
			})
		}
	}
}

// totals keeps the fields of a granularity record that
// ClusterSim.MergedGran sums.
func totals(g *stats.Granularity) stats.Granularity {
	return stats.Granularity{
		Threads: g.Threads, Inlets: g.Inlets, Quanta: g.Quanta, Activations: g.Activations,
		Dispatches: g.Dispatches, TotalInstrs: g.TotalInstrs,
		QuantumHist: g.QuantumHist, QuantumInstrs: g.QuantumInstrs,
	}
}

// TestMeshNodeRunsOnlyInCluster checks that one node of a mesh refuses
// to run on its own: a routed machine parks at WAIT instead of halting,
// so its own loop would spin to the instruction limit.
func TestMeshNodeRunsOnlyInCluster(t *testing.T) {
	spec, err := ByName("dtw")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := core.BuildCluster(core.ImplAM, spec.Build(smallArgs["dtw"]), core.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range cs.Sims {
		if err := s.Run(); err == nil {
			t.Errorf("node %d of a mesh ran on its own", s.M.Node())
		}
	}
	if err := cs.Run(); err != nil {
		t.Fatalf("mesh run after refused node runs: %v", err)
	}
}

// multinodeFingerprint runs one benchmark on a 4-node mesh and returns
// its fingerprint: elapsed lockstep ticks plus per-node instruction
// counts and reference streams.
func multinodeFingerprint(t *testing.T, spec Spec, impl core.Impl) (ticks uint64, instrs []uint64, sigs [][]uint64) {
	t.Helper()
	const nodes = 4
	cs, err := core.BuildCluster(impl, spec.Build(smallArgs[spec.Name]),
		core.Options{Nodes: nodes, MaxInstructions: 50_000_000})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	recs := make([]*trace.Recording, nodes)
	for k, s := range cs.Sims {
		recs[k] = &trace.Recording{}
		s.Tracer = recs[k]
	}
	if err := cs.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for k, s := range cs.Sims {
		instrs = append(instrs, s.M.Instructions())
		sigs = append(sigs, recordingSig(recs[k]))
	}
	return cs.Ticks(), instrs, sigs
}

// TestMultinodeDeterministic asserts that a 4-node run is exactly
// reproducible: three runs per benchmark under every registered
// backend, executed inside parallel subtests so the host Go scheduler
// varies between repetitions, must yield identical ticks, per-node
// instruction counts and per-node reference streams.
func TestMultinodeDeterministic(t *testing.T) {
	for _, spec := range All() {
		for _, b := range core.Backends() {
			spec, impl := spec, b.Impl
			t.Run(fmt.Sprintf("%s/%s", spec.Name, impl), func(t *testing.T) {
				t.Parallel()
				ticks0, instrs0, sigs0 := multinodeFingerprint(t, spec, impl)
				for rep := 1; rep < 3; rep++ {
					ticks, instrs, sigs := multinodeFingerprint(t, spec, impl)
					if ticks != ticks0 {
						t.Fatalf("rep %d: ticks %d, want %d", rep, ticks, ticks0)
					}
					for k := range instrs0 {
						if instrs[k] != instrs0[k] {
							t.Fatalf("rep %d: node %d instrs %d, want %d", rep, k, instrs[k], instrs0[k])
						}
						if len(sigs[k]) != len(sigs0[k]) {
							t.Fatalf("rep %d: node %d stream length %d, want %d",
								rep, k, len(sigs[k]), len(sigs0[k]))
						}
						for i := range sigs0[k] {
							if sigs[k][i] != sigs0[k][i] {
								t.Fatalf("rep %d: node %d stream diverges at entry %d", rep, k, i)
							}
						}
					}
				}
			})
		}
	}
}
