package service

import (
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/glift"
	"repro/internal/repair"
	"repro/internal/target"
)

// Repair-job mode: a submission with "mode": "repair" runs the
// analyze→mask→re-verify loop of internal/repair — the exact code path
// cmd/secure430 runs, which is what makes the daemon's patched assembly
// byte-identical to the CLI's for identical inputs — server-side through
// the same job lifecycle as an analysis (runJob), with runRepair as its
// execute step. Each round publishes a `round` event on the job's
// stream; the completed payload (patched assembly, per-round counts, the
// targeted-vs-always-on overhead comparison and the final report) is cached
// and persisted like an analysis result, in its own domain-tagged keyspace.

// compileRepair turns a repair-mode request into a validated repair spec,
// reporting user errors the HTTP layer maps to 400.
func compileRepair(req *JobRequest) (*repair.Spec, *glift.Options, time.Duration, error) {
	// Honest capability gating: the repair pipeline parses, rewrites and
	// re-assembles msp430 assembly; other targets are analysis-only until
	// their ISAs grow transform support.
	if tgt, err := target.Parse(req.Target); err != nil {
		return nil, nil, 0, err
	} else if !tgt.SupportsRepair {
		return nil, nil, 0, fmt.Errorf("repair mode is not supported for target %q (only msp430 has transform/repair support)", tgt.Name)
	}
	if req.IHex != "" {
		return nil, nil, 0, fmt.Errorf("repair mode requires source (the loop re-parses and rewrites assembly; ihex images cannot be repaired)")
	}
	if req.Source == "" {
		return nil, nil, 0, fmt.Errorf("missing program: repair mode requires source")
	}
	pol, err := compilePolicy(&req.Policy)
	if err != nil {
		return nil, nil, 0, err
	}
	if len(req.Policy.TaintedCode) > 0 {
		// Mask insertion moves code, so numeric ranges fixed at submission
		// time would silently mislabel later rounds; symbolic ranges under
		// repair.tainted_code re-resolve per round instead.
		return nil, nil, 0, fmt.Errorf("repair mode rejects numeric policy.tainted_code ranges: give symbolic lo:hi specs in repair.tainted_code, re-resolved each round")
	}
	opt, deadline, err := compileOptions(&req.Options)
	if err != nil {
		return nil, nil, 0, err
	}
	rr := req.Repair
	if rr == nil {
		rr = &RepairRequest{}
	}
	if rr.Rounds < 0 {
		return nil, nil, 0, fmt.Errorf("negative repair rounds")
	}
	spec := &repair.Spec{
		Source:     req.Source,
		Policy:     *pol,
		CodeRanges: rr.TaintedCode,
		MaxRounds:  rr.Rounds,
		TaskCycles: rr.TaskCycles,
	}
	if rr.Partition != "" {
		if spec.Partition, err = repair.ParsePartition(rr.Partition); err != nil {
			return nil, nil, 0, err
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, nil, 0, err
	}
	return spec, opt, deadline, nil
}

// repairKey computes the canonical content address of a repair job — the
// same soundness contract as jobKey, over the repair loop's inputs: source
// text (the loop re-parses it every round, so the text itself is the
// input), policy, per-round code-range specs, partition, round budget,
// task-cycle anchor, normalized engine options and deadline. The "repair/v1"
// domain tag keeps repair keys disjoint from analysis keys, so one store
// and one cache serve both shapes without ambiguity.
func (s *Server) repairKey(spec *repair.Spec, opt *glift.Options, deadline time.Duration) string {
	h := keyHash{sha256.New()}
	h.Write(s.designFP[:])
	h.Write([]byte("repair/v1\x00"))
	putBytes := func(b []byte) {
		h.put(uint32(len(b)))
		h.Write(b)
	}
	putBytes([]byte(spec.Source))
	putBytes(spec.Policy.CanonicalJSON())
	h.put(uint32(len(spec.CodeRanges)))
	for _, r := range spec.CodeRanges {
		putBytes([]byte(r))
	}
	h.put(spec.Partition.Lo)
	h.put(spec.Partition.Size)
	h.put(int64(spec.MaxRounds))
	h.put(spec.TaskCycles)
	return h.sum(opt, deadline)
}

// runRepair is the execute step of a repair job: the whole round loop.
// Every round gets a fresh progress hook and publishes a `round` boundary
// event on the job's stream.
func (s *Server) runRepair(ctx context.Context, j *job, opt *glift.Options) *cachedResult {
	spec := *j.rspec
	spec.Options = opt
	spec.RoundProgress = func(int) func(glift.Progress) { return s.progressHook(j) }
	spec.OnRound = func(rr repair.Round) {
		s.prom.repairRounds.Inc()
		s.publish(j.id, EventRound, RoundEventJSON{
			ID:                j.id,
			Round:             rr.Round,
			MaskedStores:      rr.MaskedStores,
			Violations:        rr.Violations,
			ViolatingStorePCs: rr.ViolatingPCs,
			NewlyFlagged:      rr.NewlyFlagged,
			Verdict:           rr.Verdict.String(),
		})
	}
	defer s.prom.repairJobs.Inc()
	res, err := repair.Run(ctx, &spec)
	if err != nil {
		// The spec was validated at submission time, so this is an internal
		// failure of the loop itself; report it fail-closed.
		return failedResult(spec.Policy.Name, err)
	}
	s.prom.repairMasked.Add(float64(res.Overheads.Targeted.MaskedStores))
	rj := res.JSON()
	return &cachedResult{rep: res.Report, rres: &rj}
}
