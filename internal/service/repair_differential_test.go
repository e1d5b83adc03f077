package service

// Differential testing of the repair-job contract: a gliftd repair job must
// be indistinguishable from running cmd/secure430 on the same inputs —
// byte-identical patched assembly, identical per-round violating-PC and
// masked-store counts, and an identical final report modulo wall-clock
// stats. Both paths execute repair.Run (the shared round loop), so what
// this suite actually pins is everything the daemon wraps around it:
// request compilation, option plumbing, the JSON round-trip, and the
// engine's performance knobs (Options.Workers and Options.Backend, which
// secure430 exposes and the daemon pins), whose exclusion from the repair
// cache key is sound only if they can never change a byte of the result.

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/glift"
	"repro/internal/repair"
	"repro/internal/sim"
)

// benchRepairSpec is the reference input: the full unarmed benchmark system
// with the evaluation policy, exactly what the secure430 invocation in the
// integration suite passes on the command line, run under the given engine
// options.
func benchRepairSpec(b *bench.Benchmark, opt *glift.Options) *repair.Spec {
	return &repair.Spec{
		Source: bench.Source(b),
		Policy: glift.Policy{
			Name:            "integrity",
			TaintedInPorts:  []int{0},
			TaintedOutPorts: []int{1},
			TaintedData:     []glift.AddrRange{{Lo: bench.PartLo, Hi: bench.PartLo + bench.PartSize}},
		},
		CodeRanges: []string{"task_start:task_end"},
		Options:    opt,
	}
}

// benchRepairReq is the same input as an HTTP submission.
func benchRepairReq(b *bench.Benchmark) *JobRequest {
	return &JobRequest{
		Source: bench.Source(b),
		Mode:   "repair",
		Policy: PolicyRequest{
			Name:            "integrity",
			TaintedInPorts:  []int{0},
			TaintedOutPorts: []int{1},
			TaintedData:     []RangeRequest{{Lo: bench.PartLo, Hi: bench.PartLo + bench.PartSize}},
		},
		Repair: &RepairRequest{TaintedCode: []string{"task_start:task_end"}},
	}
}

// normalizedRepairJSON serializes a repair payload with the report's
// wall-clock and peak-memory stats zeroed — the only fields allowed to
// differ between the CLI loop and the daemon, or between engine
// configurations.
func normalizedRepairJSON(t *testing.T, rj repair.ResultJSON) string {
	t.Helper()
	rj.Report.Stats.WallNanos = 0
	rj.Report.Stats.PeakMemBytes = 0
	out, err := json.MarshalIndent(rj, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// refOptions is the reference engine configuration: the interpreter
// backend run sequentially, the simplest configuration the engine supports.
var refOptions = glift.Options{Workers: 1, Backend: sim.BackendInterp}

// runReference executes the shared round loop directly — the exact code
// path cmd/secure430 runs — as the differential reference.
func runReference(t *testing.T, b *bench.Benchmark, opt glift.Options) *repair.Result {
	t.Helper()
	res, err := repair.Run(context.Background(), benchRepairSpec(b, &opt))
	if err != nil {
		t.Fatalf("reference repair.Run(%s): %v", b.Name, err)
	}
	return res
}

// serveRepair submits one repair job to a fresh daemon (so the
// content-addressed cache cannot serve bytes from an earlier submission)
// and returns the HTTP status and the served repair payload.
func serveRepair(t *testing.T, b *bench.Benchmark) (int, *repair.ResultJSON) {
	t.Helper()
	c, _ := newTestClient(t, Config{Workers: 1, QueueDepth: 8})
	code, st := c.do("POST", "/jobs?wait=1", benchRepairReq(b))
	if st.Repair == nil {
		t.Fatalf("%s: no repair payload (HTTP %d)", b.Name, code)
	}
	return code, st.Repair
}

// diffRepair compares a served repair payload against the reference, field
// by field and then byte for byte.
func diffRepair(t *testing.T, b *bench.Benchmark, ref *repair.Result, code int, rj *repair.ResultJSON, label string) {
	t.Helper()
	wantCode := verdictStatus(ref.Report.Verdict())
	if code != wantCode {
		t.Fatalf("%s/%s: HTTP %d, reference verdict %s wants %d",
			b.Name, label, code, ref.Report.Verdict(), wantCode)
	}
	if rj.PatchedAsm != ref.Asm {
		t.Errorf("%s/%s: patched assembly differs from the reference loop:\n--- daemon ---\n%s\n--- reference ---\n%s",
			b.Name, label, rj.PatchedAsm, ref.Asm)
	}
	refJSON := ref.JSON()
	if len(rj.Rounds) != len(refJSON.Rounds) {
		t.Fatalf("%s/%s: %d rounds, reference ran %d", b.Name, label, len(rj.Rounds), len(refJSON.Rounds))
	}
	for i := range rj.Rounds {
		if rj.Rounds[i] != refJSON.Rounds[i] {
			t.Errorf("%s/%s: round %d = %+v, reference %+v", b.Name, label, i, rj.Rounds[i], refJSON.Rounds[i])
		}
	}
	if got, want := normalizedRepairJSON(t, *rj), normalizedRepairJSON(t, refJSON); got != want {
		t.Errorf("%s/%s: repair payload differs beyond wall time:\n--- daemon ---\n%s\n--- reference ---\n%s",
			b.Name, label, got, want)
	}
}

// TestRepairDifferentialAllBenchmarks runs every scaffold benchmark through
// a gliftd repair job and through the reference loop, demanding equality.
// Benchmarks whose residual C1 violation is unfixable by masking end in
// `violations` on both paths; Figure-9-style programs end `verified` —
// either way the bytes must match.
func TestRepairDifferentialAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("repair differential sweep skipped in -short mode")
	}
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			ref := runReference(t, b, refOptions)
			if len(ref.Rounds) == 0 {
				t.Fatalf("reference ran no rounds")
			}
			code, rj := serveRepair(t, b)
			diffRepair(t, b, ref, code, rj, "default")
		})
	}
}

// TestRepairDifferentialKnobSweep sweeps the engine's performance knobs —
// workers × backend, as secure430's -workers and -backend set them — on two
// branchy benchmarks (data-dependent control flow forks the exploration,
// the hard case for engine determinism). The daemon, which pins both knobs,
// must serve a payload byte-identical to every configuration's (the
// refOptions configuration is TestRepairDifferentialAllBenchmarks'); this
// is the guarantee that lets the repair cache key exclude them.
func TestRepairDifferentialKnobSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("repair differential sweep skipped in -short mode")
	}
	configs := []glift.Options{
		{Workers: 4, Backend: sim.BackendInterp},
		{Workers: 1, Backend: sim.BackendCompiled},
		{Workers: 4, Backend: sim.BackendCompiled},
	}
	for _, name := range []string{"binSearch", "tHold"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b := bench.ByName(name)
			if b == nil {
				t.Fatalf("no benchmark %q", name)
			}
			code, rj := serveRepair(t, b)
			for _, opt := range configs {
				ref := runReference(t, b, opt)
				diffRepair(t, b, ref, code, rj, fmt.Sprintf("%s/w%d", opt.Backend, opt.Workers))
			}
		})
	}
}
