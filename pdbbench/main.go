// Command pdbbench is the repository's benchmark: it drives pdbd and the
// planner through three workloads, checks every answer it receives, and
// prints the metrics of BENCHMARK.json. See README.md in this directory.
//
// Usage:
//
//	pdbbench --workload serve-read|serve-mixed|plan-cold --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 a separate traced run carries the per-layer ones.
// Lines above it, prefixed with '#', give the same numbers under the
// per-workload names, the sample counts and the layer ledger. The exit code
// is non-zero when the run failed or any output check did.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string // WAL data dirs and trace files
}

var workloads = map[string]func(runConfig, *report) error{
	"serve-read":  func(c runConfig, r *report) error { return runServe(c, serveRead, r) },
	"serve-mixed": func(c runConfig, r *report) error { return runServe(c, serveMixed, r) },
	"plan-cold":   runCold,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pdbbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "serve-read | serve-mixed | plan-cold")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured time of the run")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", "", "working directory for WAL data and traces (default: a fresh temporary one)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	runW, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "pdbbench: need --workload serve-read|serve-mixed|plan-cold, --seconds > 0, --trace 0|1\n")
		return 2
	}
	if cfg.workdir == "" {
		dir, err := os.MkdirTemp("", "pdbbench-")
		if err != nil {
			fmt.Fprintf(stderr, "pdbbench: %v\n", err)
			return 1
		}
		defer os.RemoveAll(dir)
		cfg.workdir = dir
	} else if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "pdbbench: %v\n", err)
		return 1
	}
	cfg.workdir, _ = filepath.Abs(cfg.workdir)

	rep := newReport()
	if err := runW(cfg, rep); err != nil {
		fmt.Fprintf(stderr, "pdbbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if rep.attempted == 0 {
		fmt.Fprintf(stderr, "pdbbench: %s: no op was attempted\n", cfg.workload)
		return 1
	}
	if err := rep.write(stdout, cfg.trace); err != nil {
		fmt.Fprintf(stderr, "pdbbench: %v\n", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}
