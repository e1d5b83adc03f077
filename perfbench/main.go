// Command perfbench is the repository's benchmark: one seeded workload per
// run, measured end to end through the analyzer's public entry points, or
// (with --trace 1) a traced run that times each layer from outside. It
// prints every metric by name with its unit and sample count, then one JSON
// result line. See README.md for the workloads and metrics.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload explore-fork --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	root     string // repository root
	outDir   string // build outputs, traces and the daemon store
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, cfg *config) (*metrics, *outcome, error){
	"explore-fork": func(ctx context.Context, cfg *config) (*metrics, *outcome, error) {
		return runEngine(ctx, cfg, forkBenchmarks, false)
	},
	"straightline": func(ctx context.Context, cfg *config) (*metrics, *outcome, error) {
		return runEngine(ctx, cfg, straightBenchmarks, true)
	},
	"service-mix": runService,
	"fault-batch": runFaults,
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: explore-fork, straightline, service-mix or fault-batch")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 15, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for builds, traces and the daemon store")
	flag.Parse()
	cfg.window = time.Duration(seconds) * time.Second
	cfg.traced = trace == 1

	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload explore-fork|straightline|service-mix|fault-batch --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, seconds, trace)
	m, o, err := run(context.Background(), &cfg)
	if err != nil {
		fatal(err)
	}
	if err := report(os.Stdout, m, o, cfg.traced); err != nil {
		fatal(err)
	}
}

// tracePath is where a traced run writes its Chrome trace.
func (cfg *config) tracePath() string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// peakRSS reads a process's peak resident set size (VmHWM) in MiB; pid is
// a /proc entry name ("self" or a number).
func peakRSS(pid string) float64 {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
