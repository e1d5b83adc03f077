// secure430 is the end-to-end software-refactoring toolflow of Figures 10
// and 11: it analyzes an application against an information flow policy,
// identifies the root-cause instructions of every potential violation,
// automatically inserts address-masking instructions before the violating
// stores (re-analyzing after each round, since fixing a primary violation
// removes the conservative violations it induced), reports whether the
// watchdog-reset mechanism is required, and emits the modified assembly.
//
// The round loop itself lives in internal/repair and is shared with the
// gliftd repair-job mode, so the CLI and the daemon produce byte-identical
// patched assembly for identical inputs.
//
// Usage:
//
//	secure430 -tainted-in 1 -tainted-out 2 \
//	          -tainted-code task_start:task_end \
//	          -tainted-data 0x0400:0x0800 \
//	          -partition 0x0400:0x0400 -o fixed.s43 app.s43
//
// Exit codes follow the same fail-closed contract as gliftcheck: 0 when
// the final round verifies the modified application, 1 when violations
// remain, 2 on usage/input errors, 3 when the analysis was cut short by
// SIGINT, -deadline, or a budget (the result proves nothing) or crashed
// internally. The deadline covers all repair rounds together.
//
// -json emits the final round's report as one JSON document on stdout in
// the same wire shape the gliftd service returns; combine with -o to also
// keep the modified assembly.
//
// -trace <file> records the exploration dynamics of every analysis round
// into one Chrome trace_event JSON file (chrome://tracing, Perfetto, or
// cmd/traceview), which makes the shrinking violation frontier across
// repair rounds directly visible.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/asm"
	"repro/internal/glift"
	"repro/internal/obs"
	"repro/internal/repair"
	"repro/internal/target"
	"repro/internal/transform"
)

func main() {
	targetName := flag.String("target", "", target.FlagHelp()+"; repair requires a target with transform support")
	taintedIn := flag.String("tainted-in", "", "comma-separated tainted input ports (1-4)")
	taintedOut := flag.String("tainted-out", "", "comma-separated output ports tainted code may use (1-4)")
	taintedCode := flag.String("tainted-code", "", "comma-separated lo:hi tainted code ranges (symbols or hex)")
	taintedData := flag.String("tainted-data", "", "comma-separated lo:hi tainted data partitions (hex)")
	part := flag.String("partition", "0x0400:0x0400", "mask partition as base:size (size a power of two)")
	out := flag.String("o", "", "write the modified assembly here (default: stdout)")
	jsonOut := flag.Bool("json", false, "emit the final report as JSON on stdout (assembly then requires -o)")
	rounds := flag.Int("rounds", 8, "maximum analyze/repair rounds")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON trace covering all rounds to this file")
	deadline := flag.Duration("deadline", 0, "wall-clock budget for all rounds together (0: none); expiry exits 3")
	workers := flag.Int("workers", 0, "engine exploration workers per round (0: GOMAXPROCS, 1: sequential, capped at GOMAXPROCS); the report is identical either way")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: secure430 [flags] app.s43 (see -help)")
		os.Exit(2)
	}
	tgt, err := target.Parse(*targetName)
	if err != nil {
		fatal(err)
	}
	if !tgt.SupportsRepair {
		fatal(fmt.Errorf("target %q is analysis-only: the repair pipeline rewrites msp430 assembly (use gliftcheck -target %s instead)", tgt.Name, tgt.Name))
	}
	srcBytes, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	partition, err := repair.ParsePartition(*part)
	if err != nil {
		fatal(err)
	}

	// The policy is resolved against the original image's symbols; the
	// tainted-code ranges are additionally re-resolved by the repair loop
	// against each round's (mask-shifted) image.
	baseStmts, err := asm.Parse(string(srcBytes))
	if err != nil {
		fatal(err)
	}
	img0, err := asm.Assemble(baseStmts)
	if err != nil {
		fatal(err)
	}
	pol := glift.Policy{Name: "secure430"}
	if pol.TaintedInPorts, err = repair.ParsePorts(*taintedIn); err != nil {
		fatal(err)
	}
	if pol.TaintedOutPorts, err = repair.ParsePorts(*taintedOut); err != nil {
		fatal(err)
	}
	codeRanges := repair.SplitRangeList(*taintedCode)
	if pol.TaintedCode, err = repair.ResolveRanges(codeRanges, img0); err != nil {
		fatal(err)
	}
	if pol.TaintedData, err = repair.ResolveRanges(repair.SplitRangeList(*taintedData), img0); err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	var xt *obs.ExplorationTrace
	opts := &glift.Options{Workers: *workers}
	if *traceFile != "" {
		xt = obs.NewExplorationTrace(0)
		opts.Tracer = xt.Record
	}

	spec := &repair.Spec{
		Source:     string(srcBytes),
		Policy:     pol,
		CodeRanges: codeRanges,
		Partition:  partition,
		MaxRounds:  *rounds,
		Options:    opts,
		OnRound: func(rr repair.Round) {
			fmt.Fprintf(os.Stderr, "round %d: %d masked stores, %d violations (%s in %s)\n",
				rr.Round, rr.MaskedStores, rr.Violations, rr.Report.Stats, time.Duration(rr.Report.Stats.WallNanos))
			for _, um := range rr.Unmaskable {
				fmt.Fprintf(os.Stderr, "  error: line %d (%s) violates the policy and cannot be masked; "+
					"change the software or the labels (Footnote 6)\n", um.Line, um.Text)
			}
		},
	}
	res, err := repair.Run(ctx, spec)
	if err != nil {
		fatal(err)
	}
	rep := res.Report

	if xt != nil {
		if err := writeChromeTrace(xt, *traceFile); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "secure430: %s: %d exploration events (%d dropped by the ring bound)\n",
			*traceFile, xt.Total(), xt.Dropped())
	}

	verdict := rep.Verdict()
	fmt.Fprintln(os.Stderr, "secure430: verdict:", verdict)
	switch verdict {
	case glift.InternalError:
		fmt.Fprintln(os.Stderr, "secure430:", rep.Err.Error())
	case glift.Incomplete:
		fmt.Fprintln(os.Stderr, "NOT PROVEN: the last analysis round did not run to completion")
	}
	for _, v := range rep.Violations {
		sev := "warning"
		if v.Kind == glift.OutputPortTainted || v.Kind == glift.C5WriteUntaintedPort || v.Kind == glift.C4ReadTaintedPort {
			sev = "error" // direct leak: programmer attention required (Footnote 6)
		}
		fmt.Fprintf(os.Stderr, "%s: %s\n", sev, v)
	}
	if rep.NeedsWatchdog() {
		fmt.Fprintln(os.Stderr, "note: tainted control flow remains; wrap the tainted task in the watchdog bound")
		fmt.Fprintf(os.Stderr, "      (arm WDTCTL with %#04x-style writes from untainted code; see internal/transform)\n",
			transform.PlanWatchdog(1000).WDTCTLValue())
	} else if rep.Secure() {
		fmt.Fprintln(os.Stderr, "SECURE: the modified application guarantees the information flow policy")
	}

	if *out != "" {
		if err := os.WriteFile(*out, []byte(res.Asm), 0o644); err != nil {
			fatal(err)
		}
	} else if !*jsonOut {
		fmt.Print(res.Asm)
	}
	if *jsonOut {
		// stdout carries exactly one JSON document in the gliftd wire shape;
		// the modified assembly is available through -o.
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep.JSON()); err != nil {
			fatal(err)
		}
	}
	os.Exit(verdict.ExitCode())
}

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

// fatal reports a usage/input error (exit code 2 in the documented
// contract); analysis outcomes exit through Verdict.ExitCode instead.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "secure430:", err)
	os.Exit(2)
}
