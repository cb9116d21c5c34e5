// Command jmbench runs the repository benchmark.
//
// One workload; the last line of standard output is the JSON result:
//
//	jmbench --workload paper-cold --seed 1 --seconds 15 --trace 0
//
// A full set — every workload in its own child process, untraced, then
// traced with -trace 1 — writing the results to a run file:
//
//	jmbench -seed 1 -o run.json [-trace 1 -spans spans.json]
//
// Comparing sets of runs, each side a comma-separated list of run files;
// the exit status is 1 when any end-to-end metric regressed beyond its
// bound:
//
//	jmbench -compare base1.json,base2.json new1.json,new2.json
//
// bench/run.sh builds this command inside the checkout and runs it.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"jmtam/bench"
)

func main() {
	var cfg bench.Config
	var trace int
	var out string
	var compare bool
	flag.StringVar(&cfg.Workload, "workload", "", "run one workload ("+strings.Join(bench.Workloads, ", ")+"); empty runs a full set in child processes")
	flag.Int64Var(&cfg.Seed, "seed", 1, "input seed: paper-warm's penalty lists and serve-open's traffic")
	flag.Float64Var(&cfg.Seconds, "seconds", bench.RunSeconds, "length of each run's operation loop")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	flag.StringVar(&cfg.Spans, "spans", "", "traced runs write their spans here as Chrome trace-event JSON")
	flag.BoolVar(&cfg.Smoke, "smoke", false, "quick-scale inputs, one set-up and one operation per run")
	flag.StringVar(&out, "o", "", "full set: write the run file here")
	flag.BoolVar(&compare, "compare", false, "compare run files: two arguments, each a comma-separated list of run files")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatal(errors.New("-trace must be 0 or 1"))
	}
	cfg.Trace = trace == 1

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two arguments: the base runs and the new runs"))
		}
		var regressed bool
		regressed, err = compareFiles(strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ","))
		if err == nil && regressed {
			os.Exit(1)
		}
	case cfg.Workload != "":
		_, err = bench.Run(context.Background(), &cfg, os.Stdout)
	default:
		err = fullSet(&cfg, out)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jmbench:", err)
	os.Exit(2)
}

// fullSet runs every workload in its own child process — this binary
// re-executed with -workload and GOMAXPROCS set to the CPU count —
// passing each child's metric lines through and collecting its result.
func fullSet(cfg *bench.Config, out string) error {
	rf := &bench.RunFile{
		Nproc: runtime.NumCPU(), Seed: cfg.Seed, Seconds: cfg.Seconds,
		Workloads: make(map[string]*bench.Result),
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	passes := []bool{false}
	if cfg.Trace {
		passes = append(passes, true)
		rf.Traced = make(map[string]*bench.Result)
	}
	for _, traced := range passes {
		for _, w := range bench.Workloads {
			args := []string{"-workload", w, "-seed", fmt.Sprint(cfg.Seed), "-seconds", fmt.Sprint(cfg.Seconds)}
			if cfg.Smoke {
				args = append(args, "-smoke")
			}
			if traced {
				args = append(args, "-trace", "1")
				if cfg.Spans != "" {
					ext := filepath.Ext(cfg.Spans)
					args = append(args, "-spans", strings.TrimSuffix(cfg.Spans, ext)+"."+w+ext)
				}
			}
			res, err := child(self, args)
			if err != nil {
				return fmt.Errorf("%s: %w", w, err)
			}
			if traced {
				rf.Traced[w] = res
			} else {
				rf.Workloads[w] = res
			}
		}
	}
	if out == "" {
		return nil
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}

// child runs one workload process, echoing its metric lines, and parses
// the result from its last line.
func child(self string, args []string) (*bench.Result, error) {
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()))
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) > 0 && line[0] == '{' {
			last = append(last[:0], line...)
			continue
		}
		fmt.Printf("%s\n", line)
	}
	var res bench.Result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}

func compareFiles(base, next []string) (bool, error) {
	load := func(paths []string) ([]*bench.RunFile, error) {
		var rfs []*bench.RunFile
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			var rf bench.RunFile
			if err := json.Unmarshal(b, &rf); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			rfs = append(rfs, &rf)
		}
		return rfs, nil
	}
	a, err := load(base)
	if err != nil {
		return false, err
	}
	b, err := load(next)
	if err != nil {
		return false, err
	}
	return bench.Compare(os.Stdout, a, b)
}
