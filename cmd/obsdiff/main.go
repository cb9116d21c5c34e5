// Command obsdiff renders two tamsimd metrics dumps side by side with
// deltas, so a before/after pair of /metricz scrapes — around a load
// run, a chaos drill, or a daemon restart — reads as one table instead
// of two walls of JSON:
//
//	curl -s localhost:8347/metricz > before.json
//	...run the experiment...
//	obsdiff before.json http://127.0.0.1:8347/metricz
//
// Each argument is a file path or an http(s) URL (fetched live).
// Counters and gauges print value → value with the delta; histograms
// print count, mean and the p50/p99 estimated from their sparse log2
// buckets. By default only rows that changed are shown; -all prints
// every metric in either dump, and -match filters rows to those whose
// name contains a substring:
//
//	obsdiff -match journal before.json after.json
//	obsdiff -all before.json after.json
//
// Exit status: 0 on success (even when nothing changed — the diff is a
// report, not an assertion), 2 on a fetch or parse failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"jmtam/internal/obs"
)

// load reads a metrics document from a file path or an http(s) URL.
func load(src string) (*obs.Registry, error) {
	var r io.ReadCloser
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		c := &http.Client{Timeout: 10 * time.Second}
		resp, err := c.Get(src)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("%s: %s", src, resp.Status)
		}
		r = resp.Body
	} else {
		f, err := os.Open(src)
		if err != nil {
			return nil, err
		}
		r = f
	}
	defer r.Close()
	reg, err := obs.ReadJSON(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", src, err)
	}
	return reg, nil
}

// unionKeys returns the sorted union of two sorted name lists,
// filtered by the -match substring.
func unionKeys(a, b []string, match string) []string {
	all := append(a[:len(a):len(a)], b...)
	slices.Sort(all)
	var keys []string
	for _, k := range slices.Compact(all) {
		if strings.Contains(k, match) {
			keys = append(keys, k)
		}
	}
	return keys
}

// delta renders a signed difference, "" when zero.
func delta(d int64) string {
	if d == 0 {
		return ""
	}
	return fmt.Sprintf("%+d", d)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is obsdiff on the given arguments and output streams; it returns
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("obsdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	all := fs.Bool("all", false, "print unchanged metrics too")
	match := fs.String("match", "", "only metrics whose name contains this substring")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: obsdiff [-all] [-match substr] <before> <after>")
		fmt.Fprintln(stderr, "  each argument is a /metricz JSON file or an http(s) URL")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	before, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "obsdiff:", err)
		return 2
	}
	after, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "obsdiff:", err)
		return 2
	}

	w := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	changed := 0
	// row reports whether a metric's row prints, counting it if it
	// changed.
	row := func(same bool) bool {
		if !same {
			changed++
		}
		return !same || *all
	}

	fmt.Fprintf(w, "COUNTER\tBEFORE\tAFTER\tDELTA\n")
	// A metric missing from one dump reads as zero there.
	for _, k := range unionKeys(before.CounterNames(), after.CounterNames(), *match) {
		a, b := before.Counter(k).Value(), after.Counter(k).Value()
		if !row(a == b) {
			continue
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\n", k, a, b, delta(int64(b)-int64(a)))
	}

	fmt.Fprintf(w, "\nGAUGE\tBEFORE\tAFTER\tDELTA\tRANGE AFTER\n")
	for _, k := range unionKeys(before.GaugeNames(), after.GaugeNames(), *match) {
		a, b := before.Gauge(k), after.Gauge(k)
		if !row(a.Value() == b.Value() && a.Min() == b.Min() && a.Max() == b.Max()) {
			continue
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\t[%d, %d]\n", k, a.Value(), b.Value(), delta(b.Value()-a.Value()), b.Min(), b.Max())
	}

	fmt.Fprintf(w, "\nHISTOGRAM\tCOUNT\tΔCOUNT\tMEAN\tP50\tP99\tMAX\n")
	for _, k := range unionKeys(before.HistogramNames(), after.HistogramNames(), *match) {
		a, b := before.Histogram(k), after.Histogram(k)
		if !row(a.N == b.N && a.Sum == b.Sum) {
			continue
		}
		fmt.Fprintf(w, "%s\t%d→%d\t%s\t%.1f→%.1f\t%d\t%d\t%d\n",
			k, a.N, b.N, delta(int64(b.N)-int64(a.N)),
			a.Mean(), b.Mean(), b.Percentile(50), b.Percentile(99), b.MaxV)
	}

	w.Flush()
	fmt.Fprintf(stdout, "\n%d metric(s) changed\n", changed)
	return 0
}
