package bench

import (
	"math"
	"sort"
)

// Median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	_, q2, _ := Quartiles(xs)
	return q2
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Quartiles returns the first quartile, median and third quartile of xs
// by the "exclusive" method of Python's statistics.quantiles(xs, n=4),
// the method the benchmark's acceptance check uses. A single value is
// all three quartiles; an empty slice gives zeros. xs is not modified.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sorted(xs)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	n := len(d)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		a, b, w := d[j-1], d[j], float64(i*m-j*4)
		if w == 0 || a == b {
			// Exact, and keeps +Inf samples from turning into NaN.
			return a
		}
		return (a*(4-w) + b*w) / 4
	}
	return q(1), q(2), q(3)
}

// Spread is the distance between the quartiles as a share of the
// median: the run-to-run noise measure every bound is checked against.
func Spread(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// Tail is a latency tail: the value at percentile P.
type Tail struct {
	P     float64
	Value float64
}

// TailPercentile returns the highest percentile on the ladder
// 99/95/90/75/50 that has at least ten samples beyond it — so a p99 is
// reported only from 1000 samples up, and smaller runs name the
// percentile they could support. ok is false below 20 samples, where not
// even the median has ten beyond it. Failed or refused operations enter
// xs as +Inf, so they count as missing every limit.
func TailPercentile(xs []float64) (t Tail, ok bool) {
	n := len(xs)
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10 {
			return Tail{P: p, Value: Percentile(sorted(xs), p)}, true
		}
	}
	return Tail{}, false
}

// Percentile returns the nearest-rank p-th percentile of an ascending
// slice: the smallest value with at least p% of the samples at or below
// it.
func Percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(asc))/100)) - 1
	if k < 0 {
		k = 0
	}
	return asc[k]
}

func sorted(xs []float64) []float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	return d
}
