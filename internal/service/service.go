// Package service implements gliftd, a long-running concurrent analysis
// service over the glift engine. It accepts analysis jobs (a program as
// assembly source or an Intel-hex image, an information flow policy, and
// engine options) over HTTP, runs them on a bounded worker pool — each job
// under its own context with an optional deadline, inheriting the engine's
// fail-closed cancellation and memory-budget contract — and returns the
// full analysis report in the shared glift.ReportJSON wire shape.
//
// Results are stored in a content-addressed cache keyed by a canonical
// SHA-256 over (target name, netlist fingerprint, assembled image,
// canonical policy encoding, normalized engine options, job deadline), so a
// byte-identical resubmission is served without re-running the engine. An in-flight
// deduplication layer coalesces concurrent identical submissions onto a
// single execution. Only completed explorations (Verified or Violations
// verdicts) are cached: an Incomplete or InternalError outcome reflects the
// run, not the inputs, and must not be replayed to later submitters.
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/glift"
	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/target"
)

// Config tunes a Server.
type Config struct {
	// Workers is the number of concurrent analysis workers (default 2).
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker; a full
	// queue rejects new work with 503 rather than buffering without bound
	// (default 64).
	QueueDepth int
	// CacheEntries bounds the result cache (default 1024, FIFO eviction).
	CacheEntries int
	// DefaultDeadline applies to jobs that do not specify deadline_ms
	// (0: no deadline).
	DefaultDeadline time.Duration

	// StoreDir enables the crash-safe persistent result store: completed
	// Verified/Violations reports are fsynced there before the submitter is
	// answered, and startup recovery re-indexes every surviving record
	// ("" disables persistence; the in-memory cache still applies).
	StoreDir string
	// StoreMaxBytes caps the on-disk store; the oldest records are evicted
	// first (0: unbounded).
	StoreMaxBytes int64
	// StoreWriteDelay is a chaos-test hook holding every store write
	// half-written for the given duration before its fsync and rename —
	// widening the kill -9 window the atomic-write protocol must absorb.
	// Production use leaves it 0.
	StoreWriteDelay time.Duration

	// TenantRate enables per-tenant token-bucket admission, in jobs per
	// second of sustained refill keyed by the X-Tenant header (0 disables).
	// An exhausted bucket rejects 429 with Retry-After.
	TenantRate float64
	// TenantBurst is the token-bucket capacity (default: ceil(TenantRate),
	// at least 1).
	TenantBurst int

	// ChaosRejectPercent injects spurious 503 + Retry-After responses on
	// that percentage of submissions — a fault-injection hook for proving
	// client backoff and end-to-end verdict integrity under overload.
	// Production use leaves it 0.
	ChaosRejectPercent int

	// DefaultTarget is the processor target applied to submissions that
	// omit the "target" field (empty: the registry default, msp430). The
	// effective target always participates in the job key, so flipping
	// this between restarts never lets jobs from different targets share
	// cache entries.
	DefaultTarget string

	// StreamRingEvents bounds the per-job event ring behind
	// GET /jobs/{id}/events; a reader that falls further behind sees a gap
	// marker (default obs.DefaultRingEvents).
	StreamRingEvents int
	// StreamHeartbeat is the SSE comment-heartbeat cadence on quiet
	// streams (default 15s).
	StreamHeartbeat time.Duration
	// Logger receives structured per-job logs — submissions and
	// completions carry job_id/tenant/verdict attributes so server logs
	// correlate with stream events by job ID (nil: logs are discarded).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.StreamHeartbeat <= 0 {
		c.StreamHeartbeat = 15 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// counters aggregates service metrics; all fields are guarded by Server.mu.
type counters struct {
	submitted     int64
	completed     int64
	byVerdict     map[string]int64
	cacheHits     int64
	cacheMisses   int64
	storeHits     int64
	coalesced     int64
	engineRuns    int64
	rejected      int64
	shed          int64
	quotaRejected int64
	chaosInjected int64
	cancels       int64
	cyclesTotal   uint64
	busyWorkers   int
	// Repair-mode activity: jobs executed, rounds run across them, and
	// stores masked in their final patched builds.
	repairJobs         int64
	repairRounds       int64
	repairMaskedStores int64
	// queueDepth tracks enqueue/dequeue transitions (never sampled from the
	// channel, which would race against concurrent senders and receivers).
	queueDepth int
	// avgRunNanos is the completed-job duration EWMA pricing queue
	// admission for deadline-aware shedding.
	avgRunNanos float64
}

// Server is the analysis service: a job registry, a bounded worker pool and
// a content-addressed result cache behind an HTTP API.
type Server struct {
	cfg      Config
	design   *mcu.Design // the default target's design (or NewOn's override)
	designFP [sha256.Size]byte
	mux      *http.ServeMux
	// tmu guards tdesigns, the lazily-built designs of non-default targets
	// (fingerprinting a netlist is not free, so each is computed once).
	tmu      sync.Mutex
	tdesigns map[string]targetDesign
	queue    chan *job
	wg       sync.WaitGroup
	store    *store.Store  // nil: persistence disabled
	quotas   *tenantQuotas // nil: per-tenant admission disabled
	broker   *obs.Broker   // per-job event streams (GET /jobs/{id}/events)
	log      *slog.Logger

	mu       sync.Mutex
	jobs     map[string]*job
	inflight map[string]*job // content key -> running/queued job
	cache    *resultCache
	nextID   uint64
	closed   bool
	draining bool
	m        counters
	prom     *promMetrics
}

// New builds a Server analyzing on the shared processor design and starts
// its worker pool. Callers must Close it to stop the workers.
func New(cfg Config) (*Server, error) {
	return NewOn(glift.SharedDesign(), cfg)
}

// NewOn is New on an explicit design (the hook for tests and for serving
// analyses of modified netlists). Opening the persistent store — including
// its scan-validate-index recovery pass — happens here, so a server that
// starts is guaranteed to be serving only integrity-checked results.
func NewOn(d *mcu.Design, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if _, err := target.Parse(cfg.DefaultTarget); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		design:   d,
		designFP: d.NL.Fingerprint(),
		tdesigns: make(map[string]targetDesign),
		queue:    make(chan *job, cfg.QueueDepth),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		cache:    newResultCache(cfg.CacheEntries),
		prom:     newPromMetrics(cfg.Workers),
		broker:   obs.NewBroker(cfg.StreamRingEvents),
		log:      cfg.Logger,
	}
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir, store.Options{
			MaxBytes:   cfg.StoreMaxBytes,
			WriteDelay: cfg.StoreWriteDelay,
		})
		if err != nil {
			return nil, fmt.Errorf("service: opening result store: %w", err)
		}
		s.store = st
	}
	if cfg.TenantRate > 0 {
		s.quotas = newTenantQuotas(cfg.TenantRate, cfg.TenantBurst)
	}
	s.m.byVerdict = make(map[string]int64)
	s.mux = http.NewServeMux()
	s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Store exposes the persistent result store (nil when persistence is
// disabled) — the hook for tests and operational tooling.
func (s *Server) Store() *store.Store { return s.store }

// Handler returns the HTTP API, instrumented with the request-latency
// histogram.
func (s *Server) Handler() http.Handler { return s.instrument(s.mux) }

// Metrics returns the Prometheus metrics registry (the hook for hosts that
// serve or push the registry themselves).
func (s *Server) Metrics() *obs.Registry { return s.prom.reg }

// Close stops accepting jobs, cancels everything in flight and waits for
// the worker pool to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, j := range s.jobs {
		j.cancel()
	}
	s.mu.Unlock()
	close(s.queue)
	s.wg.Wait()
	// Workers have drained every admitted job, so each topic already ended
	// with its verdict event; closing the rest releases any subscriber
	// still parked on a stream.
	s.broker.CloseAll()
}

// Drain is the graceful half of shutdown: it stops admitting new jobs
// (submissions are rejected 503 + Retry-After) and waits for every queued
// and running job to complete through the normal path — which persists
// completed results to the store before their waiters are released — until
// ctx expires, at which point the stragglers are cancelled and Drain
// returns ctx's error. Callers still Close afterwards; Drain followed by
// Close is the SIGTERM sequence, Close alone is the abrupt one.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		idle := s.m.queueDepth == 0 && s.m.busyWorkers == 0
		s.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			s.mu.Lock()
			for _, j := range s.jobs {
				j.cancel()
			}
			s.mu.Unlock()
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// targetDesign is one lazily-resolved non-default target: its immutable
// shared design and the netlist fingerprint that keys its jobs.
type targetDesign struct {
	d  *mcu.Design
	fp [sha256.Size]byte
}

// designFor resolves the design and netlist fingerprint a job's target
// analyzes on. The default target maps to the server's own design — which
// NewOn may have overridden with a modified netlist — so the pre-target
// semantics of every existing caller are preserved; other targets resolve
// through the registry, memoized per server.
func (s *Server) designFor(tgt *target.Target) (*mcu.Design, [sha256.Size]byte) {
	if tgt == nil || tgt.Name == target.Default().Name {
		return s.design, s.designFP
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if e, ok := s.tdesigns[tgt.Name]; ok {
		return e.d, e.fp
	}
	d := tgt.Design()
	e := targetDesign{d: d, fp: d.NL.Fingerprint()}
	s.tdesigns[tgt.Name] = e
	return e.d, e.fp
}

// jobKey computes the canonical content address of a job: the SHA-256 of
// the target name and its netlist fingerprint, the assembled image (entry
// point plus every segment), the policy's canonical JSON, the normalized
// engine options and the job deadline. Two submissions with equal keys are
// guaranteed to produce the same completed report, which is what makes
// cache reuse and in-flight coalescing sound — and why the target, which
// selects the analyzed system itself, participates in the key while the
// wall-time knobs (Options.Workers/Backend) do not.
func (s *Server) jobKey(tgt *target.Target, img *asm.Image, pol *glift.Policy, opt *glift.Options, deadline time.Duration) string {
	_, fp := s.designFor(tgt)
	h := sha256.New()
	h.Write([]byte(tgt.Name))
	h.Write([]byte{0})
	h.Write(fp[:])
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(fmt.Sprintf("service: hashing job key: %v", err))
		}
	}
	put(img.Entry)
	put(uint32(len(img.Segments)))
	for _, seg := range img.Segments {
		put(seg.Addr)
		put(uint32(len(seg.Words)))
		put(seg.Words)
	}
	h.Write(pol.CanonicalJSON())
	// Only the fields that can change the report are hashed. Workers and
	// Backend cannot (the differential suites in internal/glift enforce
	// byte-identical reports across both), and every job here runs
	// sequentially on the compiled backend anyway.
	n := opt.Normalized()
	put(n.MaxCycles)
	put(n.MaxPathCycles)
	put(int64(n.WidenAfter))
	put(n.SoftMemBytes)
	put(n.HardMemBytes)
	put(int64(deadline))
	return hex.EncodeToString(h.Sum(nil))
}

// worker drains the queue until Close. The queued→busy transition is one
// critical section so an observer (Drain, /metrics) never sees a claimed
// job as neither queued nor running.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mu.Lock()
		s.m.queueDepth--
		s.m.busyWorkers++
		s.mu.Unlock()
		s.prom.queueDepth.Add(-1)
		s.prom.workersBusy.Add(1)
		if j.mode == modeRepair {
			s.runRepairJob(j)
		} else {
			s.runJob(j)
		}
	}
}

// runJob executes one job on the engine and publishes its result — to the
// job record (waiters), the job's event stream (terminal verdict event with
// per-stage latencies), the per-stage latency histograms, and the
// structured log. The engine run carries pprof labels (job id, policy), so
// CPU and heap profiles taken through gliftd's -pprof endpoint attribute
// samples to the job that burned them.
func (s *Server) runJob(j *job) {
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
	opt.Progress = (&engineProgress{m: s.prom, next: func(p glift.Progress) {
		j.setProgress(p)
		s.publish(j.id, EventProgress, progressJSON(p))
	}}).observe
	if j.streamTrace > 0 {
		opt.Tracer = s.traceSampler(j, j.streamTrace)
	}

	var rep *glift.Report
	engStart := time.Now()
	design, _ := s.designFor(j.tgt)
	eng, err := glift.NewEngineOn(design, j.img, j.pol, &opt)
	if err != nil {
		// Policy validation happens at submission time, so this is an
		// internal construction failure; report it fail-closed.
		rep = &glift.Report{Policy: j.pol.Name, Err: &glift.RunError{Reason: err.Error()}}
	} else {
		pprof.Do(ctx, pprof.Labels("glift_job", j.id, "glift_policy", j.pol.Name),
			func(ctx context.Context) { rep = eng.RunContext(ctx) })
	}
	engineRun := time.Since(engStart)
	s.prom.stages.Observe(StageEngineRun, engineRun)
	verdict := rep.Verdict()

	// Persist before publishing: once any waiter sees the completed result,
	// the result has been fsynced, so an acknowledged verdict survives
	// kill -9. Only completed explorations persist — like the in-memory
	// cache, Incomplete/InternalError reflect the run, not the inputs.
	var persistDur time.Duration
	if verdict == glift.Verified || verdict == glift.Violations {
		pStart := time.Now()
		s.persist(j.key, rep)
		persistDur = time.Since(pStart)
		s.prom.stages.Observe(StagePersist, persistDur)
	}

	s.mu.Lock()
	s.m.busyWorkers--
	s.m.engineRuns++
	s.m.completed++
	s.m.byVerdict[verdict.String()]++
	s.m.cyclesTotal += rep.Stats.Cycles
	s.observeRunLocked(time.Since(started))
	delete(s.inflight, j.key)
	if verdict == glift.Verified || verdict == glift.Violations {
		s.cache.put(j.key, &cachedResult{rep: rep})
	}
	s.mu.Unlock()
	s.prom.workersBusy.Add(-1)
	s.prom.jobsCompleted.With(verdict.String()).Inc()
	s.prom.runDur.With(verdict.String()).Observe(float64(rep.Stats.WallNanos) / 1e9)
	s.finishJob(j, rep, false, StageTimesJSON{
		QueueWaitNS: queueWait.Nanoseconds(),
		EngineRunNS: engineRun.Nanoseconds(),
		PersistNS:   persistDur.Nanoseconds(),
		TotalNS:     time.Since(j.created).Nanoseconds(),
	})
	s.log.Info("job completed",
		"job_id", j.id, "tenant", j.tenant, "verdict", verdict.String(),
		"cycles", rep.Stats.Cycles, "queue_wait_ms", queueWait.Milliseconds(),
		"engine_run_ms", engineRun.Milliseconds())
}

// persist writes one completed report durably. A store failure (cap
// exceeded, disk error) is absorbed: the result stays served from memory
// and is simply not durable, which the store's own PutErrors counter
// surfaces — durability degrades, correctness never does.
func (s *Server) persist(key string, rep *glift.Report) {
	if s.store == nil {
		return
	}
	payload, err := json.Marshal(rep.JSON())
	if err != nil {
		return
	}
	s.store.Put(key, payload) //nolint:errcheck // see above; counted in store stats
}

// lookupStore probes the persistent store for a completed report. A hit is
// trusted only after full reconstruction: the payload must parse, rebuild
// into a report, and re-serialize byte-identically — the same bytes a cold
// engine run would produce. Any failure quarantines the record and reads
// as a miss, extending the fail-closed contract to storage.
func (s *Server) lookupStore(key string) *glift.Report {
	if s.store == nil {
		return nil
	}
	payload, ok := s.store.Get(key)
	if !ok {
		return nil
	}
	var rj glift.ReportJSON
	if err := json.Unmarshal(payload, &rj); err != nil {
		s.store.Quarantine(key)
		return nil
	}
	rep, err := rj.Report()
	if err != nil {
		s.store.Quarantine(key)
		return nil
	}
	canon, err := json.Marshal(rep.JSON())
	if err != nil || !bytes.Equal(canon, payload) {
		s.store.Quarantine(key)
		return nil
	}
	return rep
}
