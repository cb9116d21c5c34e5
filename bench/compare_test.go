package bench

import (
	"strings"
	"testing"
)

// runs builds one run file per value of op_cpu_ms for paper-cold, with
// the other end-to-end metrics fixed.
func runs(nproc, failed int, ops ...float64) []*RunFile {
	var out []*RunFile
	for _, v := range ops {
		out = append(out, &RunFile{Nproc: nproc, Workloads: map[string]*Result{
			"paper-cold": {Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: map[string]Value{
				"setup_s":   {2, "s"},
				"op_cpu_ms": {v, "ms"},
				"rss_mb":    {300, "MiB"},
			}},
		}})
	}
	return out
}

func verdictOf(t *testing.T, out, metric string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) > 2 && f[0] == "paper-cold" && f[1] == metric {
			return f[len(f)-1]
		}
	}
	t.Fatalf("no %s line in:\n%s", metric, out)
	return ""
}

func TestCompare(t *testing.T) {
	base := runs(2, 0, 1000, 1010, 990, 1005, 995, 1000, 1010, 990, 1005, 995)
	for _, tc := range []struct {
		name      string
		next      []*RunFile
		verdict   string
		regressed bool
	}{
		{"same", runs(2, 0, 1002, 998, 1001, 1003, 997), Unchanged, false},
		{"within bound", runs(2, 0, 1080, 1070, 1090, 1085, 1075), Unchanged, false},
		{"slower", runs(2, 0, 1400, 1410, 1390, 1405, 1395), Worse, true}, // beyond any bound ≤ 0.25
		{"faster", runs(2, 0, 800, 810, 790, 805, 795, 800, 810, 790, 805, 795), Better, false},
		{"faster, too few runs", runs(2, 0, 800, 810, 790, 805, 795), Unchanged, false},
		{"noisy", runs(2, 0, 700, 1400, 1000, 1300, 800), Unresolved, false},
	} {
		var b strings.Builder
		regressed, err := Compare(&b, base, tc.next)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if v := verdictOf(t, b.String(), "op_cpu_ms"); v != tc.verdict || regressed != tc.regressed {
			t.Errorf("%s: verdict %s regressed %v, want %s %v\n%s", tc.name, v, regressed, tc.verdict, tc.regressed, b.String())
		}
		if v := verdictOf(t, b.String(), "setup_s"); v != Unchanged {
			t.Errorf("%s: setup_s verdict %s, want unchanged", tc.name, v)
		}
	}

	var b strings.Builder
	if regressed, _ := Compare(&b, base, runs(2, 1, 1000, 1000)); !regressed || verdictOf(t, b.String(), "failed_ratio") != Worse {
		t.Errorf("a rise in failed operations is not a regression:\n%s", b.String())
	}
	if _, err := Compare(&b, base, runs(4, 0, 1000)); err == nil {
		t.Error("runs from hosts with different CPU counts were compared")
	}
}

func TestVerdictHigherIsBetter(t *testing.T) {
	d := MetricDef{"ops_per_s", "1/s", "higher", 0.1}
	base := []float64{10, 10.1, 9.9, 10, 10.1, 9.9, 10, 10.1, 9.9, 10}
	scale := func(k float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = k * x
		}
		return out
	}
	if v, _ := Verdict(d, base, scale(0.8)); v != Worse {
		t.Errorf("throughput down 20%%: %s, want worse", v)
	}
	if v, _ := Verdict(d, base, scale(1.2)); v != Better {
		t.Errorf("throughput up 20%%: %s, want better", v)
	}
}
