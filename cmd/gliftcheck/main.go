// gliftcheck is the paper's analysis tool (Figure 6): it takes a system
// binary (as assembly for this repository's assembler), an information
// flow security policy, and performs application-specific gate-level
// information flow tracking on the gate-level MSP430-class processor,
// reporting every possible violation with its root-cause instruction.
//
// Usage:
//
//	gliftcheck -tainted-in 1 -tainted-out 2 \
//	           -tainted-code task_start:task_end \
//	           -tainted-data 0x0400:0x0800 app.s43
//
// Ports are numbered 1-4 (P1..P4). Code ranges may use symbols defined in
// the program; data ranges are hex addresses.
//
// -target selects the processor target from the registry (default msp430;
// rv32 is the RV32I-subset core). The source is assembled with the
// target's assembler and analyzed on its gate-level design.
//
// The verdict enum (verified | violations | incomplete | internal-error)
// is printed on stderr and the exit code follows a fail-closed contract:
//
//	0  verified: the exploration completed and proved the policy
//	1  violations: the exploration completed and found potential violations
//	2  usage or input error (bad flags, unreadable or unassemblable source)
//	3  analysis incomplete (deadline, SIGINT, cycle or memory budget) or
//	   internal analyzer error — the absence of violations proves nothing
//
// -deadline bounds the wall-clock time of the exploration; SIGINT aborts
// it the same way. Both produce a partial report and exit code 3.
//
// -json replaces the human-readable stdout report with one JSON document in
// the same wire shape the gliftd service returns (internal/glift ReportJSON).
//
// -trace <file> records the exploration dynamics — path spans, forks,
// merges, prunes, widening escalations, violations, budget crossings — as
// Chrome trace_event JSON, viewable in chrome://tracing or Perfetto
// (validate/summarize with cmd/traceview). -taint-trace N prints the first
// N per-cycle tainted-state entries (the pre-PR-3 meaning of -trace).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/glift"
	"repro/internal/obs"
	"repro/internal/repair"
	"repro/internal/target"
)

// writeChromeTrace dumps the recorded exploration trace to path.
func writeChromeTrace(xt *obs.ExplorationTrace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := xt.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	targetName := flag.String("target", "", target.FlagHelp())
	taintedIn := flag.String("tainted-in", "", "comma-separated tainted input ports (1-4)")
	taintedOut := flag.String("tainted-out", "", "comma-separated output ports tainted code may use (1-4)")
	taintedCode := flag.String("tainted-code", "", "comma-separated lo:hi tainted code ranges (symbols or hex)")
	taintedData := flag.String("tainted-data", "", "comma-separated lo:hi tainted data partitions (hex)")
	initTainted := flag.String("initially-tainted", "", "comma-separated lo:hi initially tainted (secret) data")
	taintWords := flag.Bool("taint-code-words", false, "also mark tainted code's instruction words as tainted data")
	maxCycles := flag.Uint64("max-cycles", 0, "exploration cycle budget (0: default)")
	deadline := flag.Duration("deadline", 0, "wall-clock analysis deadline (0: none); expiry exits 3")
	softMem := flag.Int64("soft-mem", 0, "soft memory budget in bytes, escalates widening (0: default, <0: unlimited)")
	hardMem := flag.Int64("hard-mem", 0, "hard memory budget in bytes, aborts as incomplete (0: default, <0: unlimited)")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON exploration trace to this file")
	traceN := flag.Int("taint-trace", 0, "print the first N per-cycle tainted-state entries")
	jsonOut := flag.Bool("json", false, "emit the report as JSON on stdout (the gliftd wire shape)")
	workers := flag.Int("workers", 0, "engine exploration workers (0: GOMAXPROCS, 1: sequential, capped at GOMAXPROCS); the report is identical either way")
	verbose := flag.Bool("v", false, "print exploration statistics")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gliftcheck [flags] app.s43 (see -help)")
		os.Exit(2)
	}
	tgt, err := target.Parse(*targetName)
	if err != nil {
		fatal(err)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	img, err := tgt.Assemble(string(src))
	if err != nil {
		fatal(err)
	}

	pol := &glift.Policy{Name: "cli", TaintCodeWords: *taintWords}
	if pol.TaintedInPorts, err = repair.ParsePorts(*taintedIn); err != nil {
		fatal(err)
	}
	if pol.TaintedOutPorts, err = repair.ParsePorts(*taintedOut); err != nil {
		fatal(err)
	}
	if pol.TaintedCode, err = repair.ResolveRanges(repair.SplitRangeList(*taintedCode), img); err != nil {
		fatal(err)
	}
	if pol.TaintedData, err = repair.ResolveRanges(repair.SplitRangeList(*taintedData), img); err != nil {
		fatal(err)
	}
	if pol.InitiallyTaintedData, err = repair.ResolveRanges(repair.SplitRangeList(*initTainted), img); err != nil {
		fatal(err)
	}

	opts := &glift.Options{MaxCycles: *maxCycles, SoftMemBytes: *softMem, HardMemBytes: *hardMem, Workers: *workers}
	var rec *glift.TraceRecorder
	if *traceN > 0 {
		rec = &glift.TraceRecorder{Max: *traceN}
		opts.Trace = rec.Hook()
	}
	var xt *obs.ExplorationTrace
	if *traceFile != "" {
		xt = obs.NewExplorationTrace(0)
		opts.Tracer = xt.Record
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	rep, err := glift.AnalyzeContextOn(ctx, tgt.Design(), img, pol, opts)
	if err != nil {
		fatal(err)
	}
	// With -json, stdout carries exactly one JSON document; the side-channel
	// prints move to stderr so the output stays machine-readable.
	traceDst, infoDst := os.Stdout, os.Stdout
	if *jsonOut {
		traceDst, infoDst = os.Stderr, os.Stderr
	}
	if rec != nil {
		fmt.Fprintln(traceDst, "per-cycle tainted state (first entries):")
		if _, err := rec.WriteTo(traceDst); err != nil {
			fatal(err)
		}
	}
	if xt != nil {
		if err := writeChromeTrace(xt, *traceFile); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "gliftcheck: %s: %d exploration events (%d dropped by the ring bound)\n",
			*traceFile, xt.Total(), xt.Dropped())
	}
	if *verbose {
		fmt.Fprintf(infoDst, "exploration: %s in %s\n", rep.Stats, time.Duration(rep.Stats.WallNanos))
	}
	verdict := rep.Verdict()
	fmt.Fprintln(os.Stderr, "gliftcheck: verdict:", verdict)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep.JSON()); err != nil {
			fatal(err)
		}
		os.Exit(verdict.ExitCode())
	}
	switch verdict {
	case glift.Verified:
		fmt.Println("SECURE: no possible information flow violations for this application on this processor")
	case glift.InternalError:
		fmt.Fprintln(os.Stderr, "gliftcheck:", rep.Err.Error())
		if rep.Err.Stack != "" {
			fmt.Fprintln(os.Stderr, rep.Err.Stack)
		}
	default:
		if verdict == glift.Incomplete {
			fmt.Println("NOT PROVEN: the exploration did not run to completion; violations listed below are a lower bound")
		}
		fmt.Printf("%d potential information flow violations:\n", len(rep.Violations))
		for _, v := range rep.Violations {
			loc := ""
			if si, ok := img.AddrToStmt[v.PC]; ok {
				loc = fmt.Sprintf(" [line %d: %s]", img.Stmts[si].Line, strings.TrimSpace(img.Stmts[si].String()))
			}
			fmt.Printf("  %s%s\n", v, loc)
		}
		if pcs := rep.ViolatingStorePCs(); len(pcs) > 0 {
			fmt.Printf("stores needing address masking: %d\n", len(pcs))
		}
		if rep.NeedsWatchdog() {
			fmt.Println("tainted control flow detected: the watchdog-reset transform is required")
		}
	}
	os.Exit(verdict.ExitCode())
}

// fatal reports a usage/input error (exit code 2 in the documented
// contract); analysis outcomes exit through Verdict.ExitCode instead.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gliftcheck:", err)
	os.Exit(2)
}
