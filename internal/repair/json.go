package repair

import (
	"fmt"

	"repro/internal/glift"
	"repro/internal/transform"
)

// ResultJSON is the wire/persistence shape of a repair run — the payload a
// gliftd repair job returns, persists to the result store, and the golden
// test pins down.
type ResultJSON struct {
	// PatchedAsm is the printed patched assembly, byte-identical to the
	// secure430 -o output for the same inputs.
	PatchedAsm string `json:"patched_asm"`
	// Rounds is the per-iteration record in order.
	Rounds []RoundJSON `json:"rounds"`
	// Unmaskable lists stores that violate the policy but cannot be
	// masked (deduplicated by source line).
	Unmaskable []UnmaskableJSON `json:"unmaskable,omitempty"`
	// Targeted and AlwaysOn are the two columns of the overhead
	// comparison; ReductionFactor is always-on percent over targeted
	// percent.
	Targeted        OverheadsJSON `json:"targeted"`
	AlwaysOn        OverheadsJSON `json:"always_on"`
	ReductionFactor float64       `json:"reduction_factor"`
	// Report is the final round's full analysis report.
	Report glift.ReportJSON `json:"report"`
}

// RoundJSON is one analyze/mask/re-verify iteration on the wire.
type RoundJSON struct {
	Round             int    `json:"round"`
	MaskedStores      int    `json:"masked_stores"`
	Violations        int    `json:"violations"`
	ViolatingStorePCs int    `json:"violating_store_pcs"`
	NewlyFlagged      int    `json:"newly_flagged"`
	Verdict           string `json:"verdict"`
}

// UnmaskableJSON is one flagged-but-unmaskable store on the wire.
type UnmaskableJSON struct {
	Line int    `json:"line"`
	Text string `json:"text"`
}

// OverheadsJSON is one overhead column on the wire.
type OverheadsJSON struct {
	BaseCycles      uint64       `json:"base_cycles"`
	MaskedStores    int          `json:"masked_stores"`
	MaskCycles      uint64       `json:"mask_cycles"`
	Watchdog        bool         `json:"watchdog"`
	WdtPlan         *WdtPlanJSON `json:"wdt_plan,omitempty"`
	ProtectedCycles uint64       `json:"protected_cycles"`
	OverheadPercent float64      `json:"overhead_percent"`
}

// WdtPlanJSON is a watchdog slicing plan on the wire.
type WdtPlanJSON struct {
	IntervalCycles uint32 `json:"interval_cycles"`
	Slices         int    `json:"slices"`
	BoundCycles    uint64 `json:"bound_cycles"`
	OverheadCycles uint64 `json:"overhead_cycles"`
}

// JSON converts a result to its wire shape.
func (r *Result) JSON() ResultJSON {
	out := ResultJSON{
		PatchedAsm:      r.Asm,
		Rounds:          make([]RoundJSON, 0, len(r.Rounds)),
		Targeted:        overheadsJSON(r.Overheads.Targeted),
		AlwaysOn:        overheadsJSON(r.Overheads.AlwaysOn),
		ReductionFactor: r.Overheads.ReductionFactor,
		Report:          r.Report.JSON(),
	}
	for _, rr := range r.Rounds {
		out.Rounds = append(out.Rounds, rr.JSON())
	}
	for _, um := range r.Unmaskable {
		out.Unmaskable = append(out.Unmaskable, UnmaskableJSON{Line: um.Line, Text: um.Text})
	}
	return out
}

// JSON converts one round record to its wire shape — the element of
// ResultJSON.Rounds and the body of gliftd's round stream events.
func (r *Round) JSON() RoundJSON {
	return RoundJSON{
		Round:             r.Round,
		MaskedStores:      r.MaskedStores,
		Violations:        r.Violations,
		ViolatingStorePCs: r.ViolatingPCs,
		NewlyFlagged:      r.NewlyFlagged,
		Verdict:           r.Verdict.String(),
	}
}

// Validate cross-checks a decoded wire result the way ReportJSON.Report
// does for analysis results: the embedded report must re-derive its
// verdict, the final round's verdict must match it, and the counters must
// be internally consistent. It is the fail-closed gate on every store read.
func (rj *ResultJSON) Validate() error {
	if _, err := rj.Report.Report(); err != nil {
		return fmt.Errorf("repair result: embedded report: %w", err)
	}
	if len(rj.Rounds) == 0 {
		return fmt.Errorf("repair result: no rounds")
	}
	last := rj.Rounds[len(rj.Rounds)-1]
	if last.Verdict != rj.Report.Verdict {
		return fmt.Errorf("repair result: final round verdict %q != report verdict %q",
			last.Verdict, rj.Report.Verdict)
	}
	for i, r := range rj.Rounds {
		if r.Round != i {
			return fmt.Errorf("repair result: round %d recorded as %d", i, r.Round)
		}
	}
	return nil
}

func overheadsJSON(o transform.Overheads) OverheadsJSON {
	out := OverheadsJSON{
		BaseCycles:      o.BaseCycles,
		MaskedStores:    o.MaskedStores,
		MaskCycles:      o.MaskCycles,
		Watchdog:        o.Watchdog,
		ProtectedCycles: o.ProtectedCycles,
		OverheadPercent: o.Percent(),
	}
	if o.Watchdog {
		out.WdtPlan = &WdtPlanJSON{
			IntervalCycles: o.WdtPlanUsed.IntervalCycles,
			Slices:         o.WdtPlanUsed.Slices,
			BoundCycles:    o.WdtPlanUsed.BoundCycles,
			OverheadCycles: o.WdtPlanUsed.OverheadCycles,
		}
	}
	return out
}
