// Package repair is the paper's iterative software-refactoring toolflow
// (Figures 10 and 11) as a reusable library: analyze an application against
// an information flow policy, map every violating store PC back to its
// root-cause source line, insert address-masking instruction pairs before
// those stores, reassemble, and re-verify — repeating because fixing a
// primary violation removes the conservative violations it induced — until
// the analysis stops reporting maskable escapes or the round budget runs
// out. Three callers run exactly this loop: the cmd/secure430 CLI, the
// gliftd repair-job mode (so their patched assembly is byte-identical for
// identical inputs by construction), and bench.EvaluateContext, which
// derives the paper's Tables 2 and 3 from it.
//
// Alongside the patched program the loop reports the paper's headline
// comparison (Table 3): the overhead of the targeted protections the
// analysis proved necessary versus the "always on" baseline that masks
// every maskable store and unconditionally arms the watchdog bound.
package repair

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/asm"
	"repro/internal/glift"
	"repro/internal/transform"
)

// Defaults for zero Spec fields.
const (
	// DefaultMaxRounds bounds the analyze/mask/re-verify iteration; every
	// round masks at least one new store, so the bound is rarely reached.
	DefaultMaxRounds = 8
	// DefaultTaskCycles is the nominal unprotected task period used for the
	// overhead comparison when the submitter does not measure one. The
	// comparison is deterministic arithmetic either way; the default only
	// anchors the percentages.
	DefaultTaskCycles = 1000
	// MaskCyclesPerStore is the static cost model for one executed AND/BIS
	// mask pair (the same model the benchmark pipeline plans watchdog
	// slices with; Section 7.2).
	MaskCyclesPerStore = 4
)

// Spec describes one repair run.
type Spec struct {
	// Source is the application's assembly text. Every round re-parses it
	// fresh and re-inserts the cumulative mask set, so the patched output
	// preserves the original statement order, labels and comments.
	Source string
	// Policy is the information flow policy. When CodeRanges is non-empty
	// its TaintedCode field is overwritten every round with the ranges
	// re-resolved against that round's image (mask insertion moves code;
	// symbols keep their names).
	Policy glift.Policy
	// CodeRanges lists "lo:hi" tainted-code specs, each endpoint a symbol
	// of the program or a hex/decimal address, re-resolved per round.
	CodeRanges []string
	// Partition is the tainted data partition masked stores are pinned
	// into (zero value: 0x0400:0x0400, the benchmark default).
	Partition transform.Partition
	// MaxRounds bounds the iteration (0: DefaultMaxRounds).
	MaxRounds int
	// TaskCycles is the unprotected task period for the overhead
	// comparison (0: DefaultTaskCycles).
	TaskCycles uint64
	// Options are the engine options each round's analysis runs with
	// (nil: engine defaults). The per-round Progress hook installed
	// through RoundProgress takes precedence over Options.Progress.
	Options *glift.Options
	// OnRound, when set, receives each completed round record in order —
	// the hook the CLI prints its per-round lines from and the daemon
	// publishes round-boundary stream events from.
	OnRound func(Round)
	// RoundProgress, when set, is called at each round's start and its
	// result installed as that round's engine Progress hook — one fresh
	// observer per engine run, so cumulative-to-delta metric conversion
	// never sees a counter reset.
	RoundProgress func(round int) func(glift.Progress)
}

// Round records one analyze/mask/re-verify iteration.
type Round struct {
	// Round is the 0-based iteration index.
	Round int
	// MaskedStores is the number of stores masked in this round's build
	// (cumulative: each round rebuilds from the original source with every
	// line flagged so far).
	MaskedStores int
	// Violations is the total violation count this round's analysis
	// reported.
	Violations int
	// ViolatingPCs is how many distinct violating store PCs (C2 memory
	// escapes) the analysis reported.
	ViolatingPCs int
	// NewlyFlagged is how many new source lines this round added to the
	// mask set; zero means the loop has converged.
	NewlyFlagged int
	// Verdict is this round's analysis verdict.
	Verdict glift.Verdict
	// Report is this round's full analysis report; round 0's is the
	// unpatched program's.
	Report *glift.Report
	// Unmaskable lists stores the analysis flagged that cannot be masked
	// (not register-indexed stores); they need a source change (Footnote 6).
	Unmaskable []Unmaskable
}

// Unmaskable is one flagged store the transform layer cannot mask.
type Unmaskable struct {
	// Line is the store's source line.
	Line int
	// Text is the trimmed statement text.
	Text string
}

// Comparison is the targeted-versus-always-on overhead gap (Table 3).
type Comparison struct {
	// Targeted is the cost of only the protections the analysis proved
	// necessary: the masks actually inserted, plus the watchdog bound only
	// when tainted control flow remains.
	Targeted transform.Overheads
	// AlwaysOn is the no-application-knowledge baseline: every maskable
	// store masked and the watchdog bound always armed.
	AlwaysOn transform.Overheads
	// ReductionFactor is AlwaysOn overhead percent over Targeted overhead
	// percent (0 when the targeted overhead is zero) — the paper's 3.3x
	// headline shape.
	ReductionFactor float64
}

// Result is one completed repair run.
type Result struct {
	// Stmts is the final (patched) statement list.
	Stmts []asm.Stmt
	// Asm is the printed patched assembly — the byte-identity unit of the
	// CLI/daemon differential contract.
	Asm string
	// Report is the final round's analysis report; its verdict is the
	// run's verdict (fail-closed: an Incomplete round stops the loop and
	// proves nothing about the patched program).
	Report *glift.Report
	// Rounds records every iteration in order.
	Rounds []Round
	// MaskedLines are the source lines of the stores masked in Stmts, in
	// ascending order.
	MaskedLines []int
	// Unmaskable aggregates the flagged-but-unmaskable stores across all
	// rounds, deduplicated by source line in first-seen order.
	Unmaskable []Unmaskable
	// Overheads is the targeted-versus-always-on comparison.
	Overheads Comparison
}

// Validate checks a spec without running the engine: the source must parse
// and assemble, the partition must be well-formed, and every code-range
// spec must resolve against the unpatched image. Errors are user errors
// (the HTTP 400 / CLI exit 2 class).
func (s *Spec) Validate() error {
	if strings.TrimSpace(s.Source) == "" {
		return fmt.Errorf("repair: empty source")
	}
	if err := s.partition().Validate(); err != nil {
		return err
	}
	if s.MaxRounds < 0 {
		return fmt.Errorf("repair: negative max rounds")
	}
	stmts, err := asm.Parse(s.Source)
	if err != nil {
		return err
	}
	img, err := asm.Assemble(stmts)
	if err != nil {
		return err
	}
	if _, err := ResolveRanges(s.CodeRanges, img); err != nil {
		return err
	}
	return nil
}

func (s *Spec) partition() transform.Partition {
	if s.Partition == (transform.Partition{}) {
		return transform.Partition{Lo: 0x0400, Size: 0x0400}
	}
	return s.Partition
}

func (s *Spec) maxRounds() int {
	if s.MaxRounds <= 0 {
		return DefaultMaxRounds
	}
	return s.MaxRounds
}

func (s *Spec) taskCycles() uint64 {
	if s.TaskCycles == 0 {
		return DefaultTaskCycles
	}
	return s.TaskCycles
}

// Run executes the repair loop. A non-nil error is a user/input error
// (unparseable source, unresolvable range, invalid partition); analysis
// outcomes — including cancellation and budget exhaustion, which surface as
// an Incomplete final verdict — are reported through Result.Report.
func Run(ctx context.Context, spec *Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	partition := spec.partition()

	flaggedLines := map[int]bool{}
	res := &Result{}
	seenUnmaskable := map[int]bool{}
	var finalStmts []asm.Stmt
	var rep *glift.Report
	maskedFinal := 0
	for round := 0; round < spec.maxRounds(); round++ {
		stmts, err := asm.Parse(spec.Source) // fresh copy each round
		if err != nil {
			return nil, err
		}
		flagged := map[int]bool{}
		var lines []int
		for i := range stmts {
			if flaggedLines[stmts[i].Line] {
				flagged[i] = true
				lines = append(lines, stmts[i].Line)
			}
		}
		masked := 0
		if len(flagged) > 0 {
			stmts, masked, err = transform.InsertMasks(stmts, flagged, partition)
			if err != nil {
				return nil, err
			}
		}
		img, err := asm.Assemble(stmts)
		if err != nil {
			return nil, err
		}
		// The tainted-code symbols keep their names across mask insertion,
		// so re-resolve the policy ranges from the new image.
		pol := spec.Policy
		if len(spec.CodeRanges) > 0 {
			if pol.TaintedCode, err = ResolveRanges(spec.CodeRanges, img); err != nil {
				return nil, err
			}
		}
		var opts glift.Options
		if spec.Options != nil {
			opts = *spec.Options
		}
		if spec.RoundProgress != nil {
			opts.Progress = spec.RoundProgress(round)
		}
		rep, err = glift.AnalyzeContext(ctx, img, &pol, &opts)
		if err != nil {
			return nil, err
		}
		pcs := rep.ViolatingStorePCs()
		rr := Round{
			Round:        round,
			MaskedStores: masked,
			Violations:   len(rep.Violations),
			ViolatingPCs: len(pcs),
			Verdict:      rep.Verdict(),
			Report:       rep,
		}
		finalStmts, maskedFinal, res.MaskedLines = stmts, masked, lines
		if v := rr.Verdict; v == glift.Incomplete || v == glift.InternalError {
			// A truncated or crashed analysis proves nothing: repairing
			// against its violation list would be guesswork, so stop here
			// and let the verdict drive the outcome.
			res.Rounds = append(res.Rounds, rr)
			if spec.OnRound != nil {
				spec.OnRound(rr)
			}
			break
		}
		progress := false
		for _, pc := range pcs {
			si, ok := img.AddrToStmt[pc]
			if !ok {
				continue
			}
			st := img.Stmts[si]
			if st.Line == 0 {
				continue // an inserted mask instruction cannot be the root cause
			}
			if _, maskable := transform.MaskableStoreTarget(&st); !maskable {
				um := Unmaskable{Line: st.Line, Text: strings.TrimSpace(st.String())}
				rr.Unmaskable = append(rr.Unmaskable, um)
				if !seenUnmaskable[st.Line] {
					seenUnmaskable[st.Line] = true
					res.Unmaskable = append(res.Unmaskable, um)
				}
				continue
			}
			if !flaggedLines[st.Line] {
				flaggedLines[st.Line] = true
				rr.NewlyFlagged++
				progress = true
			}
		}
		res.Rounds = append(res.Rounds, rr)
		if spec.OnRound != nil {
			spec.OnRound(rr)
		}
		if !progress {
			break
		}
	}

	res.Stmts = finalStmts
	res.Asm = asm.Print(finalStmts)
	res.Report = rep
	res.Overheads = compareOverheads(spec, rep, maskedFinal)
	return res, nil
}

// compareOverheads builds the Table 3 comparison with the static cost model
// the benchmark pipeline plans with: each masked store adds
// MaskCyclesPerStore executed cycles to the task period, and an armed
// watchdog stretches the period to its plan's deterministic bound. The
// targeted column arms the watchdog only when the final analysis says
// tainted control flow remains; the always-on column masks every maskable
// store in the program and always arms it.
func compareOverheads(spec *Spec, rep *glift.Report, targetedMasks int) Comparison {
	base := spec.taskCycles()
	cmp := Comparison{
		Targeted: overheadsFor(base, targetedMasks, rep != nil && rep.NeedsWatchdog()),
	}
	allMasks := 0
	if stmts, err := asm.Parse(spec.Source); err == nil {
		allMasks = len(transform.MaskableStoreIdxs(stmts))
	}
	cmp.AlwaysOn = overheadsFor(base, allMasks, true)
	if tp := cmp.Targeted.Percent(); tp > 0 {
		cmp.ReductionFactor = cmp.AlwaysOn.Percent() / tp
	}
	return cmp
}

// overheadsFor prices one protection configuration.
func overheadsFor(base uint64, masks int, watchdog bool) transform.Overheads {
	o := transform.Overheads{
		BaseCycles:   base,
		MaskedStores: masks,
		MaskCycles:   MaskCyclesPerStore * uint64(masks),
		Watchdog:     watchdog,
	}
	o.ProtectedCycles = base + o.MaskCycles
	if watchdog {
		o.WdtPlanUsed = transform.PlanWatchdog(o.ProtectedCycles)
		o.ProtectedCycles = o.WdtPlanUsed.BoundCycles
	}
	return o
}

// ParsePartition parses a "base:size" partition spec (hex or decimal, size
// a power of two, base size-aligned) — the secure430 -partition syntax and
// the repair request's partition field.
func ParsePartition(s string) (transform.Partition, error) {
	lo, size, ok := strings.Cut(s, ":")
	if !ok {
		return transform.Partition{}, fmt.Errorf("bad partition %q (want base:size)", s)
	}
	l, err := strconv.ParseUint(strings.ToLower(lo), 0, 16)
	if err != nil {
		return transform.Partition{}, err
	}
	sz, err := strconv.ParseUint(strings.ToLower(size), 0, 17)
	if err != nil {
		return transform.Partition{}, err
	}
	p := transform.Partition{Lo: uint16(l), Size: uint16(sz)}
	return p, p.Validate()
}

// ParsePorts parses a comma-separated list of 1-based port numbers into the
// 0-based indices policies use (the secure430/gliftcheck -tainted-in
// syntax).
func ParsePorts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 || n > 4 {
			return nil, fmt.Errorf("bad port %q (want 1-4)", part)
		}
		out = append(out, n-1)
	}
	return out, nil
}

// SplitRangeList splits a comma-separated "lo:hi,lo:hi" flag value into
// individual range specs ("" yields nil).
func SplitRangeList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

// ResolveRanges resolves "lo:hi" specs against an image: each endpoint is a
// symbol of the image or a hex/decimal address.
func ResolveRanges(specs []string, img *asm.Image) ([]glift.AddrRange, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	out := make([]glift.AddrRange, 0, len(specs))
	for _, spec := range specs {
		lo, hi, ok := strings.Cut(strings.TrimSpace(spec), ":")
		if !ok {
			return nil, fmt.Errorf("bad range %q (want lo:hi)", spec)
		}
		l, err := Resolve(lo, img)
		if err != nil {
			return nil, err
		}
		h, err := Resolve(hi, img)
		if err != nil {
			return nil, err
		}
		out = append(out, glift.AddrRange{Lo: l, Hi: h})
	}
	return out, nil
}

// Resolve maps one range endpoint to an address: image symbols win, then
// hex/decimal literals.
func Resolve(s string, img *asm.Image) (uint16, error) {
	if v, ok := img.Symbol(s); ok {
		return v, nil
	}
	n, err := strconv.ParseUint(strings.ToLower(s), 0, 16)
	if err != nil {
		return 0, fmt.Errorf("cannot resolve %q as a symbol or address", s)
	}
	return uint16(n), nil
}
