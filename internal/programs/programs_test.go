package programs

import (
	"testing"

	"jmtam/internal/core"
	"jmtam/internal/trace"
)

// testImpls is every registered backend, so each program's answer is
// checked on one node under all of them.
var testImpls = func() []core.Impl {
	var impls []core.Impl
	for _, b := range core.Backends() {
		impls = append(impls, b.Impl)
	}
	return impls
}()

// run builds and runs prog under impl, failing the test on any error
// (including result verification).
func run(t *testing.T, impl core.Impl, prog *core.Program) *core.Sim {
	t.Helper()
	sim, err := core.Build(impl, prog, core.Options{MaxInstructions: 200_000_000})
	if err != nil {
		t.Fatalf("Build(%v, %s): %v", impl, prog.Name, err)
	}
	sim.Tracer = &trace.Recording{}
	if err := sim.Run(); err != nil {
		t.Fatalf("Run(%v, %s): %v", impl, prog.Name, err)
	}
	return sim
}

func TestSS(t *testing.T) {
	for _, impl := range testImpls {
		t.Run(impl.String(), func(t *testing.T) {
			sim := run(t, impl, SS(50))
			// SS is one giant activation: TPQ must be very large.
			if tpq := sim.Gran.TPQ(); tpq < 100 {
				t.Errorf("SS TPQ = %.1f, want >= 100", tpq)
			}
		})
	}
}

func TestWavefront(t *testing.T) {
	for _, impl := range testImpls {
		t.Run(impl.String(), func(t *testing.T) {
			sim := run(t, impl, Wavefront(12))
			if tpq := sim.Gran.TPQ(); tpq < 8 {
				t.Errorf("wavefront TPQ = %.1f, want >= 8", tpq)
			}
		})
	}
}

func TestDTW(t *testing.T) {
	for _, impl := range testImpls {
		t.Run(impl.String(), func(t *testing.T) {
			run(t, impl, DTW(8))
		})
	}
}
