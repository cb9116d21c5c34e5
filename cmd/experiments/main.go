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
	runArg := flag.String("run", "all", "artifact to regenerate: "+strings.Join(artifacts, "|")+"|all")
	scale := flag.String("scale", "quick", "problem sizes: quick|paper")
	format := flag.String("format", "text", "figure output: text (ASCII charts) | csv (figure,penalty,series,sizeKB,ratio rows)")
	par := flag.Int("parallel", 0, "concurrent simulations and trace replays (0 = GOMAXPROCS); results are identical at any setting")
	metricsDir := flag.String("metrics-dir", "", "collect per-run observability metrics during the sweep and write one registry JSON dump per (workload, implementation) into this directory")
	nodes := flag.Int("nodes", 1, "mesh node count for the cache sweep artifacts (power of two, at most 64); >1 runs every workload on an N-node mesh (e.g. Table 2 at N=4)")
	placementName := flag.String("placement", "round-robin", "frame placement policy for -nodes > 1: round-robin|local")
	implsArg := flag.String("impls", "md,am,offload,aa", "comma-separated backends for the noderatio and victimsweep artifacts (known: "+strings.Join(core.BackendNames(), ", ")+")")
	flag.Parse()

	if *runArg != "all" && !slices.Contains(artifacts, *runArg) {
		fmt.Fprintf(os.Stderr, "unknown -run %q (known: %s, all)\n", *runArg, strings.Join(artifacts, ", "))
		os.Exit(2)
	}

	placement, err := core.ParsePlacement(*placementName)
	if err != nil {
		check(err)
	}

	impls, err := core.ParseImpls(*implsArg)
	if err != nil {
		check(err)
	}

	var ws []experiments.Workload
	switch *scale {
	case "quick":
		ws = experiments.QuickWorkloads()
	case "paper":
		ws = experiments.PaperWorkloads()
	default:
		fmt.Fprintf(os.Stderr, "unknown -scale %q\n", *scale)
		os.Exit(2)
	}

	want := func(name string) bool { return *runArg == "all" || *runArg == name }
	needSweep := false
	for _, n := range []string{"table2", "figure3", "figure4", "figure5", "figure6", "accessratios", "penalties"} {
		if want(n) {
			needSweep = true
		}
	}

	if want("table1") {
		fmt.Println("Table 1: mapping of TAM constructs to the J-Machine")
		fmt.Printf("%-22s  %-34s  %s\n", "TAM Mechanism", "AM Implementation", "MD Implementation")
		fmt.Println(strings.Repeat("-", 92))
		for _, r := range core.Mapping() {
			fmt.Printf("%-22s  %-34s  %s\n", r.Mechanism, r.AM, r.MD)
		}
		fmt.Println()
	}

	if needSweep {
		sweep := experiments.DefaultSweep(ws)
		sweep.Parallelism = *par
		sweep.CollectMetrics = *metricsDir != ""
		sweep.Options.Nodes = *nodes
		sweep.Options.Placement = placement
		meshNote := ""
		if *nodes > 1 {
			meshNote = fmt.Sprintf(" on %d-node meshes", *nodes)
		}
		fmt.Printf("running sweep over %d workloads x %d backends x %d cache geometries%s...\n\n",
			len(ws), len(sweep.Impls), len(sweep.SizesKB)*len(sweep.Assocs), meshNote)
		ds, err := sweep.Execute()
		check(err)
		if *metricsDir != "" {
			check(dumpMetrics(*metricsDir, ds))
		}
		if want("table2") {
			fmt.Println("Table 2: granularity and MD/AM cycle ratios (8K 4-way, miss 12/24/48)")
			fmt.Print(jmtam.ReportTable2(ds))
			fmt.Println()
		}
		if want("penalties") {
			pens := []int{12, 24, 48, 96, 192, 384, 768}
			series := experiments.PenaltySweep(ds, 32, 4, pens)
			fmt.Print(report.ChartUnits("Penalty sweep: MD/AM ratio vs miss penalty (32K 4-way)", series, ""))
			for _, w := range ws {
				p := experiments.CrossoverPenalty(ds, w.Name, 32, 4, pens)
				if p > 0 {
					fmt.Printf("  %s: AM overtakes MD at miss penalty >= %d cycles\n", w.Name, p)
				} else {
					fmt.Printf("  %s: MD wins at every candidate penalty\n", w.Name)
				}
			}
			fmt.Println()
		}
		if want("accessratios") {
			fmt.Println("§3.1: MD accesses as a fraction of AM's (paper: 86% / 87% / 77%)")
			fmt.Print(jmtam.ReportAccessRatios(ds))
			fmt.Println()
		}
		if *format == "csv" {
			fmt.Println("figure,penalty,series,sizeKB,ratio")
			if want("figure3") {
				emitCSV("figure3", experiments.Figure3(ds))
			}
			if want("figure4") {
				emitCSV("figure4", experiments.Figure4(ds))
			}
			if want("figure5") {
				emitCSV("figure5", experiments.Figure5(ds))
			}
			if want("figure6") {
				for _, s := range experiments.Figure6(ds) {
					for i, kb := range s.SizesKB {
						fmt.Printf("figure6,,%s,%d,%.6f\n", s.Label, kb, s.Ratios[i])
					}
				}
			}
		} else {
			if want("figure3") {
				fmt.Print(jmtam.ReportFigure3(ds))
			}
			if want("figure4") {
				fmt.Print(jmtam.ReportFigure4(ds))
			}
			if want("figure5") {
				fmt.Print(jmtam.ReportFigure5(ds))
			}
			if want("figure6") {
				fmt.Print(jmtam.ReportFigure6(ds))
			}
		}
	}

	if want("figure2") {
		rows, err := experiments.EnabledAblation(ws, core.Options{}, *par)
		check(err)
		fmt.Println("Figure 2 ablation: unenabled vs enabled AM (uniprocessor anomaly)")
		fmt.Print(report.Enabled(rows))
		fmt.Println()
	}

	if want("blocksweep") {
		rows, err := experiments.BlockSweep(ws, core.Options{}, *par)
		check(err)
		fmt.Println("Block-size ablation (8K 4-way, miss 24; paper used 64B blocks)")
		fmt.Print(report.Blocks(rows))
		fmt.Println()
	}

	if want("assocsweep") {
		rows, err := experiments.AssocSweep(ws, core.Options{}, *par)
		check(err)
		fmt.Println("Associativity ablation (8K/64B, miss 24; residual gap at 16-way is not conflict misses)")
		fmt.Print(report.Assocs(rows))
		fmt.Println()
	}

	if want("victimsweep") {
		rows, err := experiments.VictimSweep(ws, impls, nil, core.Options{}, *par)
		check(err)
		fmt.Println("Victim-cache ablation (8K direct-mapped + N-entry victim buffer, 64B blocks)")
		fmt.Print(report.Victims(rows))
		fmt.Println()
	}

	if want("mdopt") {
		rows, err := experiments.MDOptAblation(ws, core.Options{}, *par)
		check(err)
		fmt.Println("§2.3 optimization ablation: MD with vs without the static optimizations")
		fmt.Print(report.MDOpt(rows))
		fmt.Println()
	}

	if want("classes") {
		rows, err := experiments.ClassBreakdown(ws, core.Options{}, *par)
		check(err)
		fmt.Println("System/user reference mix (§3.1 memory division)")
		fmt.Print(report.Classes(rows))
		fmt.Println()
	}

	if want("mix") {
		rows, err := experiments.InstructionMix(ws, core.Options{}, *par)
		check(err)
		fmt.Println("Dynamic instruction mix")
		fmt.Print(report.Mix(rows))
		fmt.Println()
	}

	if want("noderatio") {
		geom := cache.Config{SizeBytes: 8 * 1024, BlockBytes: 64, Assoc: 4}
		counts := []int{1, 2, 4, 8}
		opt := core.Options{Placement: placement}
		rows, err := experiments.NodeRatioSweep(ws, impls, counts, geom, 24, opt, *par)
		check(err)
		fmt.Println("Multi-node: MD-relative cycle ratio vs node count (8K 4-way per node, miss 24)")
		fmt.Print(report.NodeRatios(rows))
		fmt.Println()
		hops, err := experiments.HopLatencySweep(ws, impls, 4, []uint64{1, 2, 4, 8, 16}, opt, *par)
		check(err)
		fmt.Println("Multi-node: MD-relative elapsed-tick ratio vs per-hop delay (4 nodes)")
		fmt.Print(report.HopLatency(hops))
		fmt.Println()
	}

	if want("oam") {
		rows, err := experiments.OAMComparison(ws, core.Options{}, *par)
		check(err)
		fmt.Println("Optimistic-AM hybrid (§2.4 / [KWW+94]): MD vs OAM vs AM (8K 4-way, miss 24)")
		fmt.Print(report.OAM(rows))
	}
}

// dumpMetrics writes one registry JSON dump per (workload,
// implementation) run of the sweep into dir, named
// <workload>_<impl>.json.
func dumpMetrics(dir string, ds *experiments.Dataset) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, w := range ds.Sweep.Workloads {
		for impl, r := range ds.Runs[w.Name] {
			if r == nil || r.Metrics == nil {
				continue
			}
			path := filepath.Join(dir, fmt.Sprintf("%s_%s.json", w.Name, impl))
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
			fmt.Printf("wrote %s\n", path)
		}
	}
	return nil
}

// emitCSV prints one figure's series as CSV rows.
func emitCSV(name string, byPenalty map[int][]jmtam.Series) {
	pens := make([]int, 0, len(byPenalty))
	for p := range byPenalty {
		pens = append(pens, p)
	}
	sort.Ints(pens)
	for _, p := range pens {
		for _, s := range byPenalty[p] {
			for i, kb := range s.SizesKB {
				fmt.Printf("%s,%d,%s,%d,%.6f\n", name, p, s.Label, kb, s.Ratios[i])
			}
		}
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
