// Command experiments regenerates the paper's evaluation artifacts:
//
//	experiments -run all -scale quick
//	experiments -run table2 -scale paper
//	experiments -run figure5
//
// Artifacts: table1 (TAM construct mapping), table2 (granularity and
// cycle ratios), figure2 (enabled/unenabled AM ablation), figure3-6
// (MD/AM cycle-ratio charts), accessratios (§3.1), blocksweep (block-size
// ablation), assocsweep (associativity ablation up to 16-way).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"jmtam"
	"jmtam/internal/cache"
	"jmtam/internal/core"
	"jmtam/internal/experiments"
	"jmtam/internal/report"
)

// artifacts lists the names -run accepts besides "all".
var artifacts = []string{"table1", "table2", "figure2", "figure3", "figure4", "figure5", "figure6",
	"accessratios", "blocksweep", "assocsweep", "victimsweep", "mdopt", "oam", "classes", "mix",
	"penalties", "noderatio"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is experiments on the given arguments and output streams; it
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.run, "run", "all", "artifact to regenerate: "+strings.Join(artifacts, "|")+"|all")
	scale := fs.String("scale", "quick", "problem sizes: quick|paper")
	fs.StringVar(&c.format, "format", "text", "figure output: text (ASCII charts) | csv (figure,penalty,series,sizeKB,ratio rows)")
	fs.IntVar(&c.par, "parallel", 0, "concurrent simulations and trace replays (0 = GOMAXPROCS); results are identical at any setting")
	fs.StringVar(&c.metricsDir, "metrics-dir", "", "collect per-run observability metrics during the sweep and write one registry JSON dump per (workload, implementation) into this directory")
	fs.IntVar(&c.nodes, "nodes", 1, "mesh node count for the cache sweep artifacts (power of two, at most 64); >1 runs every workload on an N-node mesh (e.g. Table 2 at N=4)")
	placementName := fs.String("placement", "round-robin", "frame placement policy for -nodes > 1: round-robin|local")
	implsArg := fs.String("impls", "md,am,offload,aa", "comma-separated backends for the noderatio and victimsweep artifacts (known: "+strings.Join(core.BackendNames(), ", ")+")")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if c.run != "all" && !slices.Contains(artifacts, c.run) {
		fmt.Fprintf(stderr, "unknown -run %q (known: %s, all)\n", c.run, strings.Join(artifacts, ", "))
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	var err error
	if c.placement, err = core.ParsePlacement(*placementName); err != nil {
		return fail(err)
	}
	if c.impls, err = core.ParseImpls(*implsArg); err != nil {
		return fail(err)
	}
	switch *scale {
	case "quick":
		c.ws = experiments.QuickWorkloads()
	case "paper":
		c.ws = experiments.PaperWorkloads()
	default:
		fmt.Fprintf(stderr, "unknown -scale %q\n", *scale)
		return 2
	}
	if err := c.emit(stdout); err != nil {
		return fail(err)
	}
	return 0
}

// config holds the parsed command line.
type config struct {
	run, format, metricsDir string
	par, nodes              int
	placement               core.Placement
	impls                   []core.Impl
	ws                      []experiments.Workload
}

// want reports whether -run selects the named artifact.
func (c *config) want(name string) bool { return c.run == "all" || c.run == name }

// emit regenerates the selected artifacts onto w.
func (c *config) emit(w io.Writer) error {
	want, ws, par := c.want, c.ws, c.par
	needSweep := slices.ContainsFunc([]string{"table2", "figure3", "figure4", "figure5", "figure6", "accessratios", "penalties"}, want)

	if want("table1") {
		fmt.Fprintln(w, "Table 1: mapping of TAM constructs to the J-Machine")
		fmt.Fprintf(w, "%-22s  %-34s  %s\n", "TAM Mechanism", "AM Implementation", "MD Implementation")
		fmt.Fprintln(w, strings.Repeat("-", 92))
		for _, r := range core.Mapping() {
			fmt.Fprintf(w, "%-22s  %-34s  %s\n", r.Mechanism, r.AM, r.MD)
		}
		fmt.Fprintln(w)
	}

	if needSweep {
		sweep := experiments.DefaultSweep(ws)
		sweep.Parallelism = par
		sweep.CollectMetrics = c.metricsDir != ""
		sweep.Options.Nodes = c.nodes
		sweep.Options.Placement = c.placement
		meshNote := ""
		if c.nodes > 1 {
			meshNote = fmt.Sprintf(" on %d-node meshes", c.nodes)
		}
		fmt.Fprintf(w, "running sweep over %d workloads x %d backends x %d cache geometries%s...\n\n",
			len(ws), len(sweep.Impls), len(sweep.SizesKB)*len(sweep.Assocs), meshNote)
		ds, err := sweep.Execute()
		if err != nil {
			return err
		}
		if c.metricsDir != "" {
			if err := dumpMetrics(w, c.metricsDir, ds); err != nil {
				return err
			}
		}
		if want("table2") {
			section(w, "Table 2: granularity and MD/AM cycle ratios (8K 4-way, miss 12/24/48)", jmtam.ReportTable2(ds))
		}
		if want("penalties") {
			pens := []int{12, 24, 48, 96, 192, 384, 768}
			series := experiments.PenaltySweep(ds, 32, 4, pens)
			fmt.Fprint(w, report.ChartUnits("Penalty sweep: MD/AM ratio vs miss penalty (32K 4-way)", series, ""))
			for _, wl := range ws {
				p := experiments.CrossoverPenalty(ds, wl.Name, 32, 4, pens)
				if p > 0 {
					fmt.Fprintf(w, "  %s: AM overtakes MD at miss penalty >= %d cycles\n", wl.Name, p)
				} else {
					fmt.Fprintf(w, "  %s: MD wins at every candidate penalty\n", wl.Name)
				}
			}
			fmt.Fprintln(w)
		}
		if want("accessratios") {
			section(w, "§3.1: MD accesses as a fraction of AM's (paper: 86% / 87% / 77%)", jmtam.ReportAccessRatios(ds))
		}
		if c.format == "csv" {
			fmt.Fprintln(w, "figure,penalty,series,sizeKB,ratio")
			if want("figure3") {
				emitCSV(w, "figure3", experiments.Figure3(ds))
			}
			if want("figure4") {
				emitCSV(w, "figure4", experiments.Figure4(ds))
			}
			if want("figure5") {
				emitCSV(w, "figure5", experiments.Figure5(ds))
			}
			if want("figure6") {
				for _, s := range experiments.Figure6(ds) {
					for i, kb := range s.SizesKB {
						fmt.Fprintf(w, "figure6,,%s,%d,%.6f\n", s.Label, kb, s.Ratios[i])
					}
				}
			}
		} else {
			if want("figure3") {
				fmt.Fprint(w, jmtam.ReportFigure3(ds))
			}
			if want("figure4") {
				fmt.Fprint(w, jmtam.ReportFigure4(ds))
			}
			if want("figure5") {
				fmt.Fprint(w, jmtam.ReportFigure5(ds))
			}
			if want("figure6") {
				fmt.Fprint(w, jmtam.ReportFigure6(ds))
			}
		}
	}

	if want("figure2") {
		rows, err := experiments.EnabledAblation(ws, core.Options{}, par)
		if err != nil {
			return err
		}
		section(w, "Figure 2 ablation: unenabled vs enabled AM (uniprocessor anomaly)", report.Enabled(rows))
	}

	if want("blocksweep") {
		rows, err := experiments.BlockSweep(ws, core.Options{}, par)
		if err != nil {
			return err
		}
		section(w, "Block-size ablation (8K 4-way, miss 24; paper used 64B blocks)", report.Blocks(rows))
	}

	if want("assocsweep") {
		rows, err := experiments.AssocSweep(ws, core.Options{}, par)
		if err != nil {
			return err
		}
		section(w, "Associativity ablation (8K/64B, miss 24; residual gap at 16-way is not conflict misses)", report.Assocs(rows))
	}

	if want("victimsweep") {
		rows, err := experiments.VictimSweep(ws, c.impls, nil, core.Options{}, par)
		if err != nil {
			return err
		}
		section(w, "Victim-cache ablation (8K direct-mapped + N-entry victim buffer, 64B blocks)", report.Victims(rows))
	}

	if want("mdopt") {
		rows, err := experiments.MDOptAblation(ws, core.Options{}, par)
		if err != nil {
			return err
		}
		section(w, "§2.3 optimization ablation: MD with vs without the static optimizations", report.MDOpt(rows))
	}

	if want("classes") {
		rows, err := experiments.ClassBreakdown(ws, core.Options{}, par)
		if err != nil {
			return err
		}
		section(w, "System/user reference mix (§3.1 memory division)", report.Classes(rows))
	}

	if want("mix") {
		rows, err := experiments.InstructionMix(ws, core.Options{}, par)
		if err != nil {
			return err
		}
		section(w, "Dynamic instruction mix", report.Mix(rows))
	}

	if want("noderatio") {
		geom := cache.Config{SizeBytes: 8 * 1024, BlockBytes: 64, Assoc: 4}
		counts := []int{1, 2, 4, 8}
		opt := core.Options{Placement: c.placement}
		rows, err := experiments.NodeRatioSweep(ws, c.impls, counts, geom, 24, opt, par)
		if err != nil {
			return err
		}
		section(w, "Multi-node: MD-relative cycle ratio vs node count (8K 4-way per node, miss 24)", report.NodeRatios(rows))
		hops, err := experiments.HopLatencySweep(ws, c.impls, 4, []uint64{1, 2, 4, 8, 16}, opt, par)
		if err != nil {
			return err
		}
		section(w, "Multi-node: MD-relative elapsed-tick ratio vs per-hop delay (4 nodes)", report.HopLatency(hops))
	}

	if want("oam") {
		rows, err := experiments.OAMComparison(ws, core.Options{}, par)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Optimistic-AM hybrid (§2.4 / [KWW+94]): MD vs OAM vs AM (8K 4-way, miss 24)")
		fmt.Fprint(w, report.OAM(rows))
	}
	return nil
}

// section prints one titled table and a blank line.
func section(w io.Writer, title, table string) {
	fmt.Fprintf(w, "%s\n%s\n", title, table)
}

// dumpMetrics writes one registry JSON dump per (workload,
// implementation) run of the sweep into dir, named
// <workload>_<impl>.json, in workload order and, within a workload, in
// the sweep's backend order.
func dumpMetrics(out io.Writer, dir string, ds *experiments.Dataset) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, w := range ds.Sweep.Workloads {
		for _, impl := range ds.Sweep.Impls {
			r := ds.Run(w.Name, impl)
			if r == nil || r.Metrics == nil {
				continue
			}
			path := filepath.Join(dir, fmt.Sprintf("%s_%s.json", w.Name, impl.Name()))
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := r.Metrics.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", path)
		}
	}
	return nil
}

// emitCSV prints one figure's series as CSV rows.
func emitCSV(w io.Writer, name string, byPenalty map[int][]jmtam.Series) {
	pens := make([]int, 0, len(byPenalty))
	for p := range byPenalty {
		pens = append(pens, p)
	}
	sort.Ints(pens)
	for _, p := range pens {
		for _, s := range byPenalty[p] {
			for i, kb := range s.SizesKB {
				fmt.Fprintf(w, "%s,%d,%s,%d,%.6f\n", name, p, s.Label, kb, s.Ratios[i])
			}
		}
	}
}
