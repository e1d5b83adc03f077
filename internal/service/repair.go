package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"time"

	"repro/internal/asm"
	"repro/internal/glift"
	"repro/internal/repair"
	"repro/internal/target"
)

// Repair-job mode: a submission with "mode": "repair" runs the
// analyze→mask→re-verify loop of internal/repair — the exact code path
// cmd/secure430 runs, which is what makes the daemon's patched assembly
// byte-identical to the CLI's for identical inputs — server-side on the
// worker pool, under the job's deadline/cancellation, admission and
// persistence machinery. Each round publishes a `round` event on the job's
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
	h := sha256.New()
	h.Write(s.designFP[:])
	h.Write([]byte("repair/v1\x00"))
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(fmt.Sprintf("service: hashing repair key: %v", err))
		}
	}
	putBytes := func(b []byte) {
		put(uint32(len(b)))
		h.Write(b)
	}
	putBytes([]byte(spec.Source))
	putBytes(spec.Policy.CanonicalJSON())
	put(uint32(len(spec.CodeRanges)))
	for _, r := range spec.CodeRanges {
		putBytes([]byte(r))
	}
	put(spec.Partition.Lo)
	put(spec.Partition.Size)
	put(int64(spec.MaxRounds))
	put(spec.TaskCycles)
	// Workers/Backend are byte-identical by the differential contract (the
	// repair differential suite sweeps them), so like jobKey they stay out
	// of the key.
	n := opt.Normalized()
	put(n.MaxCycles)
	put(n.MaxPathCycles)
	put(int64(n.WidenAfter))
	put(n.SoftMemBytes)
	put(n.HardMemBytes)
	put(int64(deadline))
	return hex.EncodeToString(h.Sum(nil))
}

// runRepairJob executes one repair job — the worker-pool counterpart of
// runJob. The whole round loop runs as the job's engine-run stage; every
// round gets a fresh engineProgress observer (the cumulative→delta
// conversion assumes one engine run per observer) and publishes a `round`
// boundary event on the job's stream.
func (s *Server) runRepairJob(j *job) {
	started := time.Now()
	queueWait := started.Sub(j.enqueued)
	s.prom.stages.Observe(StageQueueWait, queueWait)
	j.setState(stateRunning)
	s.publish(j.id, EventState, StateEventJSON{ID: j.id, State: stateRunning})
	ctx := j.ctx
	if j.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.deadline)
		defer cancel()
	}
	opt := j.opt
	if j.streamTrace > 0 {
		opt.Tracer = s.traceSampler(j, j.streamTrace)
	}

	spec := j.rspec
	spec.Options = &opt
	spec.RoundProgress = func(int) func(glift.Progress) {
		return (&engineProgress{m: s.prom, next: func(p glift.Progress) {
			j.setProgress(p)
			s.publish(j.id, EventProgress, progressJSON(p))
		}}).observe
	}
	rounds, maskedStores := 0, 0
	var cycles uint64
	spec.OnRound = func(rr repair.Round) {
		rounds++
		cycles += rr.Stats.Cycles
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

	var rep *glift.Report
	var rj *repair.ResultJSON
	var res *repair.Result
	var err error
	engStart := time.Now()
	pprof.Do(ctx, pprof.Labels("glift_job", j.id, "glift_policy", spec.Policy.Name),
		func(ctx context.Context) { res, err = repair.Run(ctx, spec) })
	if err != nil {
		// The spec was validated at submission time, so this is an internal
		// failure of the loop itself; report it fail-closed.
		rep = &glift.Report{Policy: spec.Policy.Name, Err: &glift.RunError{Reason: err.Error()}}
	} else {
		rep = res.Report
		v := res.JSON()
		rj = &v
		maskedStores = res.Overheads.Targeted.MaskedStores
	}
	engineRun := time.Since(engStart)
	s.prom.stages.Observe(StageEngineRun, engineRun)
	verdict := rep.Verdict()

	// Persist before publishing, exactly like analysis results: once any
	// waiter sees the completed payload it has been fsynced. Only completed
	// explorations persist — Incomplete/InternalError reflect the run.
	var persistDur time.Duration
	if rj != nil && (verdict == glift.Verified || verdict == glift.Violations) {
		pStart := time.Now()
		s.persistRepair(j.key, rj)
		persistDur = time.Since(pStart)
		s.prom.stages.Observe(StagePersist, persistDur)
	}

	s.mu.Lock()
	s.m.busyWorkers--
	s.m.engineRuns += int64(rounds) // every round is one engine run
	s.m.completed++
	s.m.byVerdict[verdict.String()]++
	s.m.cyclesTotal += cycles
	s.m.repairJobs++
	s.m.repairRounds += int64(rounds)
	s.m.repairMaskedStores += int64(maskedStores)
	s.observeRunLocked(time.Since(started))
	delete(s.inflight, j.key)
	if rj != nil && (verdict == glift.Verified || verdict == glift.Violations) {
		s.cache.put(j.key, &cachedResult{rep: rep, rres: rj})
	}
	s.mu.Unlock()
	s.prom.workersBusy.Add(-1)
	s.prom.jobsCompleted.With(verdict.String()).Inc()
	s.prom.repairJobs.Inc()
	s.prom.repairRounds.Add(float64(rounds))
	s.prom.repairMasked.Add(float64(maskedStores))
	s.prom.runDur.With(verdict.String()).Observe(float64(rep.Stats.WallNanos) / 1e9)
	if rj != nil {
		j.setRepair(rj)
	}
	s.finishJob(j, rep, false, StageTimesJSON{
		QueueWaitNS: queueWait.Nanoseconds(),
		EngineRunNS: engineRun.Nanoseconds(),
		PersistNS:   persistDur.Nanoseconds(),
		TotalNS:     time.Since(j.created).Nanoseconds(),
	})
	s.log.Info("repair job completed",
		"job_id", j.id, "tenant", j.tenant, "verdict", verdict.String(),
		"rounds", rounds, "masked_stores", maskedStores, "cycles", cycles,
		"queue_wait_ms", queueWait.Milliseconds(), "engine_run_ms", engineRun.Milliseconds())
}

// persistRepair writes one completed repair payload durably; like persist,
// a store failure degrades durability, never correctness.
func (s *Server) persistRepair(key string, rj *repair.ResultJSON) {
	if s.store == nil {
		return
	}
	payload, err := json.Marshal(rj)
	if err != nil {
		return
	}
	s.store.Put(key, payload) //nolint:errcheck // absorbed; counted in store stats
}

// lookupStoreRepair probes the persistent store for a completed repair
// payload, extending lookupStore's fail-closed contract to the repair
// shape: the payload must parse, its embedded report must rebuild and its
// verdict re-derive, the record must re-serialize byte-identically, and the
// patched assembly must still assemble. Any failure quarantines the record
// and reads as a miss.
func (s *Server) lookupStoreRepair(key string) *cachedResult {
	if s.store == nil {
		return nil
	}
	payload, ok := s.store.Get(key)
	if !ok {
		return nil
	}
	var rj repair.ResultJSON
	if err := json.Unmarshal(payload, &rj); err != nil {
		s.store.Quarantine(key)
		return nil
	}
	if err := rj.Validate(); err != nil {
		s.store.Quarantine(key)
		return nil
	}
	rep, err := rj.Report.Report()
	if err != nil {
		s.store.Quarantine(key)
		return nil
	}
	canon, err := json.Marshal(&rj)
	if err != nil || !bytes.Equal(canon, payload) {
		s.store.Quarantine(key)
		return nil
	}
	if _, err := asm.AssembleSource(rj.PatchedAsm); err != nil {
		s.store.Quarantine(key)
		return nil
	}
	return &cachedResult{rep: rep, rres: &rj}
}
