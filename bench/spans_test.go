package bench

import (
	"testing"
	"time"
)

func TestSelfTimesAndCoverage(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []Span{
		{Name: "op", ID: 1, Start: at(0), End: at(10)},
		{Name: "a", ID: 2, Parent: 1, Lane: 1, Start: at(1), End: at(4)},
		{Name: "b", ID: 3, Parent: 1, Lane: 2, Start: at(3), End: at(6)}, // overlaps a
		{Name: "a1", ID: 4, Parent: 2, Lane: 1, Start: at(2), End: at(3)},
		{Name: "op", ID: 5, Trace: 1, Start: at(20), End: at(30)},
		{Name: "b", ID: 6, Parent: 5, Trace: 1, Start: at(25), End: at(35)}, // clipped at the parent's end
	}
	self := SelfTimes(spans)
	ms := time.Millisecond
	for name, want := range map[string]time.Duration{"op": 5*ms + 5*ms, "a": 2 * ms, "b": 3*ms + 10*ms, "a1": ms} {
		if self[name] != want {
			t.Errorf("self[%s] = %v, want %v", name, self[name], want)
		}
	}
	if c := Coverage(spans); c != 0.5 {
		t.Errorf("Coverage = %v, want 0.5", c)
	}
}
