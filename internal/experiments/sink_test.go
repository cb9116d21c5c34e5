package experiments

import (
	"bytes"
	"testing"

	"jmtam/internal/core"
	"jmtam/internal/obs"
)

// TestSharedSinkSerializesCells passes one observability sink to every
// cell of a sweep and of two ablations, one of which records nothing.
// Cells that share a sink run one at a time, in cell order, and sum
// into it, so the registry reads the same at every parallelism, and the
// race detector sees no two cells touch it at once.
func TestSharedSinkSerializesCells(t *testing.T) {
	dump := func(par int) string {
		sink := obs.New()
		s := DefaultSweep(tinyWorkloads)
		s.SizesKB = []int{1, 8}
		s.Parallelism = par
		s.Options.Obs = sink
		ds, err := s.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if r := ds.Run("mmt", core.ImplMD); r.Metrics != sink.Metrics {
			t.Fatalf("par=%d: run metrics are not the shared registry", par)
		}
		if _, err := BlockSweep(tinyWorkloads, core.Options{Obs: sink}, par); err != nil {
			t.Fatal(err)
		}
		if _, err := EnabledAblation(tinyWorkloads, core.Options{Obs: sink}, par); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := sink.Metrics.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if serial, wide := dump(1), dump(4); serial != wide {
		t.Errorf("shared registry differs between 1 and 4 workers:\n%s\nvs\n%s", serial, wide)
	}
}
