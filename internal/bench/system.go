package bench

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/asm"
	"repro/internal/glift"
	"repro/internal/repair"
	"repro/internal/transform"
)

// Variant selects a protection configuration for a benchmark system.
type Variant int

// Variants.
const (
	// Unmodified is the original application.
	Unmodified Variant = iota
	// WithAnalysis applies only the protections the application-specific
	// analysis proves necessary (the paper's approach).
	WithAnalysis
	// AlwaysOn masks every maskable task store and time-bounds the tainted
	// task unconditionally — the software baseline with no application
	// knowledge.
	AlwaysOn
)

func (v Variant) String() string {
	switch v {
	case Unmodified:
		return "unmodified"
	case WithAnalysis:
		return "with-analysis"
	default:
		return "always-on"
	}
}

// Built is an assembled benchmark system plus its policy and metadata.
type Built struct {
	Bench   *Benchmark
	Variant Variant
	Stmts   []asm.Stmt
	Img     *asm.Image
	Policy  *glift.Policy
	// Masked is the number of store sites protected by masking.
	Masked int
	// Watchdog reports whether the watchdog bound is armed, with its plan.
	Watchdog bool
	Plan     transform.WdtPlan
}

// partition is the benchmarks' tainted data partition.
var partition = transform.Partition{Lo: PartLo, Size: PartSize}

// header emits the shared equates and system code. When armed, the tainted
// task ends in an in-partition idle loop and the watchdog (already armed by
// the untainted system code) recovers the pipeline with a power-on reset;
// otherwise the task jumps straight back into the untainted system code.
func header(armed bool, wdtval uint16) string {
	var sb strings.Builder
	sb.WriteString(`
.equ WDTCTL, 0x0120
.equ P1IN, 0x0020
.equ P2OUT, 0x0026
.equ TPART, 0x0400
start:  mov #0x0400, sp
`)
	if armed {
		fmt.Fprintf(&sb, "sysloop: mov #0x%04x, &WDTCTL ; arm the deterministic bound\n", wdtval)
		sb.WriteString("        jmp task\n")
		sb.WriteString("task_start:\n")
	} else {
		sb.WriteString("sysloop: jmp task\n")
		sb.WriteString("task_done: jmp sysloop\n")
		sb.WriteString("task_start:\n")
	}
	return sb.String()
}

func trailer(armed bool) string {
	if armed {
		// The idle loop belongs to the tainted partition: the task parks
		// here with a possibly tainted PC until the watchdog fires.
		return "task_done: jmp task_done ; idle until the watchdog reset\ntask_end: nop\n"
	}
	return "task_end: nop\n"
}

// buildSource assembles the full system text for a benchmark.
func buildSource(b *Benchmark, armed bool, wdtval uint16) string {
	return header(armed, wdtval) + b.Task + trailer(armed)
}

// Source is the unarmed full system text for a benchmark — the program the
// repair toolflow (EvaluateContext, secure430 and gliftd repair jobs) takes
// as input. The differential suites feed the same text to all of them.
func Source(b *Benchmark) string {
	return buildSource(b, false, 0)
}

// policyFor labels the system: P1IN tainted source, P2OUT legal tainted
// sink, the task's code partition tainted, the data partition allocated.
func policyFor(img *asm.Image) *glift.Policy {
	return &glift.Policy{
		Name:            "integrity",
		TaintedInPorts:  []int{0},
		TaintedOutPorts: []int{1},
		TaintedCode: []glift.AddrRange{{
			Lo: img.MustSymbol("task_start"),
			Hi: img.MustSymbol("task_end"),
		}},
		TaintedData: []glift.AddrRange{{Lo: PartLo, Hi: PartLo + PartSize}},
	}
}

// The unmodified system is pure in its source text, and every measurement
// and variant derivation starts from it, so it is assembled once per
// benchmark and shared read-only.
var (
	unmodMu    sync.Mutex
	unmodCache = map[string]*Built{}
)

// BuildUnmodified assembles the original system once per benchmark and
// returns the shared, read-only result on every later call.
func BuildUnmodified(b *Benchmark) (*Built, error) {
	unmodMu.Lock()
	defer unmodMu.Unlock()
	if bt, ok := unmodCache[b.Name]; ok {
		return bt, nil
	}
	src := buildSource(b, false, 0)
	img, err := asm.AssembleSource(src)
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", b.Name, err)
	}
	bt := &Built{
		Bench: b, Variant: Unmodified,
		Stmts: img.Stmts, Img: img, Policy: policyFor(img),
	}
	unmodCache[b.Name] = bt
	return bt, nil
}

// taskStmtOffset finds the statement index of the "task" label.
func taskStmtOffset(stmts []asm.Stmt) (int, error) {
	for i := range stmts {
		if stmts[i].Label == "task" {
			return i, nil
		}
	}
	return 0, fmt.Errorf("bench: no task label")
}

// buildVariant assembles a variant from the set of flagged source lines
// (statements carry their original source line numbers through mask
// insertion, since inserted statements have Line 0; the armed and unarmed
// scaffolds occupy the same number of source lines, so a line found on one
// names the same store on the other).
func buildVariant(b *Benchmark, v Variant, armed bool, plan transform.WdtPlan, flaggedLines map[int]bool) (*Built, error) {
	src := buildSource(b, armed, plan.WDTCTLValue())
	stmts, err := asm.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", b.Name, err)
	}
	flagged := map[int]bool{}
	for i := range stmts {
		if stmts[i].Line > 0 && flaggedLines[stmts[i].Line] {
			flagged[i] = true
		}
	}
	masked := 0
	if len(flagged) > 0 {
		stmts, masked, err = transform.InsertMasks(stmts, flagged, partition)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", b.Name, err)
		}
	}
	img, err := asm.Assemble(stmts)
	if err != nil {
		return nil, fmt.Errorf("bench %s (%s): %w\n%s", b.Name, v, err, asm.Print(stmts))
	}
	return &Built{
		Bench: b, Variant: v, Stmts: stmts, Img: img, Policy: policyFor(img),
		Masked: masked, Watchdog: armed, Plan: plan,
	}, nil
}

// BuildProtected derives a protected variant of the unmodified system.
//
// WithAnalysis applies what the repair toolflow (internal/repair, the
// paper's Figure 11) found necessary on the unarmed system: the stores it
// masked, plus the watchdog bound when its final analysis still sees
// tainted control flow. taskCycles is the measured unprotected task length
// used for slice planning.
//
// AlwaysOn masks every maskable task store and always arms the watchdog.
func BuildProtected(b *Benchmark, v Variant, res *repair.Result, unmod *Built, taskCycles uint64) (*Built, error) {
	flaggedLines := map[int]bool{}
	armed := true
	if v == AlwaysOn {
		off0, err := taskStmtOffset(unmod.Stmts)
		if err != nil {
			return nil, err
		}
		for _, si := range transform.MaskableStoreIdxs(unmod.Stmts) {
			if si >= off0 {
				flaggedLines[unmod.Stmts[si].Line] = true
			}
		}
	} else {
		if res == nil {
			return nil, fmt.Errorf("bench: WithAnalysis requires a repair result")
		}
		for _, line := range res.MaskedLines {
			flaggedLines[line] = true
		}
		armed = res.Report.NeedsWatchdog()
		if len(flaggedLines) == 0 && !armed {
			// Nothing to fix: the protected variant is the unmodified program.
			return &Built{
				Bench: b, Variant: v, Stmts: unmod.Stmts, Img: unmod.Img,
				Policy: unmod.Policy,
			}, nil
		}
	}
	plan := transform.PlanWatchdog(taskCycles + repair.MaskCyclesPerStore*uint64(len(flaggedLines)))
	return buildVariant(b, v, armed, plan, flaggedLines)
}
