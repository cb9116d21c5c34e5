package bench

import (
	"fmt"
	"io"
	"math"
)

// RunFile is one full set of runs as cmd/jmbench writes it.
type RunFile struct {
	Nproc     int                `json:"nproc"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Workloads map[string]*Result `json:"workloads"`
	Traced    map[string]*Result `json:"traced,omitempty"`
}

// Verdicts of a comparison, per workload and end-to-end metric.
const (
	Better     = "better"
	Worse      = "worse"
	Unchanged  = "unchanged"
	Unresolved = "unresolved"
)

// Compare prints, for every workload and end-to-end metric, the median
// and quartiles of each side's runs and a verdict, and reports whether
// any metric regressed: its median worse than the base's by more than
// its bound, or a higher share of failed operations. Runs from hosts
// with different CPU counts are refused.
func Compare(w io.Writer, base, next []*RunFile) (regressed bool, err error) {
	all := append(append([]*RunFile(nil), base...), next...)
	for _, rf := range all {
		if rf.Nproc != all[0].Nproc {
			return false, fmt.Errorf("refusing to compare runs from hosts with %d and %d CPUs", all[0].Nproc, rf.Nproc)
		}
	}
	for _, wl := range Workloads {
		for _, d := range EndToEnd {
			a, b := metricValues(base, wl, d.Name), metricValues(next, wl, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, change := Verdict(d, a, b)
			regressed = regressed || v == Worse
			fmt.Fprintf(w, "%-10s %-12s base %s  new %s  %+6.1f%%  %s\n", wl, d.Name, quartiles(a), quartiles(b), 100*change, v)
		}
		fa, fb := failedShare(base, wl), failedShare(next, wl)
		v := Unchanged
		if fb > fa {
			v, regressed = Worse, true
		}
		fmt.Fprintf(w, "%-10s %-12s base %.4f  new %.4f  %s\n", wl, "failed_ratio", fa, fb, v)
	}
	return regressed, nil
}

// Verdict compares the new runs b of one metric against the base runs a.
// change is the relative change of the median, positive when it got
// worse. A metric whose run-to-run spread exceeds its bound is
// unresolved unless every new run reads better, or every one worse, than
// every base run. It regressed when its median worsened by more than the
// bound. It improved when, over at least minPairs pairs (runs paired in
// order), the new run won at least nine tenths, ties counting for
// neither, and the medians differ by more than the base's quartile
// spread.
func Verdict(d MetricDef, a, b []float64) (verdict string, change float64) {
	a1, am, a3 := Quartiles(a)
	_, bm, _ := Quartiles(b)
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	if am != 0 {
		change = sign * (bm - am) / math.Abs(am)
	}
	worse := func(x, y float64) bool { return sign*(x-y) > 0 } // x worse than y
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			allBetter = allBetter && worse(x, y)
			allWorse = allWorse && worse(y, x)
		}
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if worse(a[i], b[i]) {
			wins++
		}
	}
	switch {
	case math.Max(Spread(a), Spread(b)) > d.Bound && !allBetter && !allWorse:
		return Unresolved, change
	case change > d.Bound:
		return Worse, change
	case change < 0 && pairs >= minPairs && float64(wins) >= 0.9*float64(pairs) && math.Abs(bm-am) > a3-a1:
		return Better, change
	}
	return Unchanged, change
}

// minPairs is the fewest paired runs a gain can be claimed on.
const minPairs = 10

func metricValues(rfs []*RunFile, workload, metric string) []float64 {
	var xs []float64
	for _, rf := range rfs {
		if r := rf.Workloads[workload]; r != nil {
			if v, ok := r.Metrics[metric]; ok {
				xs = append(xs, v.Value)
			}
		}
	}
	return xs
}

func failedShare(rfs []*RunFile, workload string) float64 {
	var failed, attempted int
	for _, rf := range rfs {
		if r := rf.Workloads[workload]; r != nil {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func quartiles(xs []float64) string {
	q1, q2, q3 := Quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", q2, q1, q3, len(xs))
}
