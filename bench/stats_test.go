package bench

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	inf := math.Inf(1)
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 4, 3}, 2, 4, 8.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5}, 5, 5, 5},
		{nil, 0, 0, 0},
		{[]float64{1, 2, 3, inf}, 1.25, 2.5, inf},
	} {
		q1, q2, q3 := Quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("Quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v, want 2", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	if s := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != (8.25-2.75)/5.5 {
		t.Errorf("Spread = %v", s)
	}
	if m := Mean([]float64{1, 2, 6}); m != 3 {
		t.Errorf("Mean = %v, want 3", m)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean of nothing = %v, want 0", m)
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the function must sort
		}
		return xs
	}
	if _, ok := TailPercentile(seq(19)); ok {
		t.Error("19 samples: no percentile has ten beyond it, want !ok")
	}
	for _, tc := range []struct {
		n    int
		p, v float64
	}{
		{20, 50, 10}, {40, 75, 30}, {100, 90, 90}, {200, 95, 190}, {999, 95, 950}, {1000, 99, 990},
	} {
		got, ok := TailPercentile(seq(tc.n))
		if !ok || got.P != tc.p || got.Value != tc.v {
			t.Errorf("n=%d: got %+v ok=%v, want p%v = %v", tc.n, got, ok, tc.p, tc.v)
		}
	}
}

func TestFailuresCountAtInfinity(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 1
	}
	// Ten failures sit exactly beyond p99; eleven reach it.
	for i := 0; i < 10; i++ {
		xs[i] = math.Inf(1)
	}
	if tail, _ := TailPercentile(xs); tail.Value != 1 {
		t.Errorf("10 failures in 1000: p99 = %v, want 1", tail.Value)
	}
	xs[10] = math.Inf(1)
	if tail, _ := TailPercentile(xs); !math.IsInf(tail.Value, 1) {
		t.Errorf("11 failures in 1000: p99 = %v, want +Inf", tail.Value)
	}
	if m := Median([]float64{1, math.Inf(1), math.Inf(1)}); !math.IsInf(m, 1) {
		t.Errorf("median with most operations failed = %v, want +Inf", m)
	}
	if m := Mean([]float64{1, 1, math.Inf(1)}); !math.IsInf(m, 1) {
		t.Errorf("mean with one operation failed = %v, want +Inf", m)
	}
}
