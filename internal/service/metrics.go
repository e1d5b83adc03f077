package service

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/glift"
	"repro/internal/obs"
	"repro/internal/store"
)

// storeStats aliases store.Stats for the scrape-time delta sync below.
type storeStats = store.Stats

// promMetrics bundles every Prometheus series gliftd exports: the service
// series (request latency, queue/worker/cache state, job outcomes) and the
// engine series fed by each job's Progress stream. The JSON counters in
// Server.m keep the legacy /metrics.json shape; these series are the
// time-series view over the same events.
type promMetrics struct {
	reg *obs.Registry

	httpDur       *obs.HistogramVec // {route, code}
	stages        *obs.Spans        // {stage}: queue-wait, engine-run, persist, cache-hit
	streamEvents  *obs.CounterVec   // {type}
	streamGaps    *obs.Counter
	streamSubs    *obs.Gauge
	streamTopics  *obs.Gauge
	jobsSubmitted *obs.Counter
	jobsRejected  *obs.Counter
	jobsShed      *obs.Counter
	quotaRejected *obs.Counter
	chaosInjected *obs.Counter
	jobsCompleted *obs.CounterVec // {verdict}
	cancels       *obs.Counter
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	coalesced     *obs.Counter
	cacheEntries  *obs.Gauge
	queueDepth    *obs.Gauge
	workers       *obs.Gauge
	workersBusy   *obs.Gauge
	repairJobs    *obs.Counter
	repairRounds  *obs.Counter
	repairMasked  *obs.Counter

	storeHits        *obs.Counter
	storePuts        *obs.Counter
	storePutErrors   *obs.Counter
	storeQuarantined *obs.Counter
	storeEvictions   *obs.Counter
	storeRecovered   *obs.Counter
	storeEntries     *obs.Gauge
	storeBytes       *obs.Gauge
	// prevStore is the last store.Stats snapshot folded into the counters
	// above (scrape-time delta sync); guarded by Server.mu.
	prevStore storeStats

	runDur          *obs.HistogramVec // {verdict}
	engCycles       *obs.Counter
	engPaths        *obs.Counter
	engForks        *obs.Counter
	engMerges       *obs.Counter
	engPrunes       *obs.Counter
	engEscalations  *obs.Counter
	engTableStates  *obs.Gauge
	engPeakMem      *obs.Gauge
	engCyclesPerSec *obs.Gauge
}

func newPromMetrics(workers int) *promMetrics {
	reg := obs.NewRegistry()
	m := &promMetrics{
		reg: reg,
		httpDur: reg.HistogramVec("gliftd_http_request_duration_seconds",
			"HTTP request latency by route pattern and status code.", obs.DefBuckets, "route", "code"),
		stages: reg.Spans("gliftd_stage_duration_seconds",
			"Per-stage job latency: queue-wait, engine-run, persist, cache-hit."),
		streamEvents: reg.CounterVec("gliftd_stream_events_total",
			"Events published to job event streams, by event type.", "type"),
		streamGaps: reg.Counter("gliftd_stream_gap_events_total",
			"Gap markers delivered to stream subscribers that fell behind a job's event ring."),
		streamSubs: reg.Gauge("gliftd_stream_subscribers",
			"Open GET /jobs/{id}/events subscriptions."),
		streamTopics: reg.Gauge("gliftd_stream_topics",
			"Job event-stream topics held by the broker."),
		jobsSubmitted: reg.Counter("gliftd_jobs_submitted_total",
			"Job submissions received, including later-rejected ones."),
		jobsRejected: reg.Counter("gliftd_jobs_rejected_total",
			"Submissions rejected because the queue was full."),
		jobsShed: reg.Counter("gliftd_jobs_shed_total",
			"Submissions shed because their deadline could not be met at the predicted queue wait."),
		quotaRejected: reg.Counter("gliftd_quota_rejected_total",
			"Submissions rejected by a tenant's exhausted token bucket."),
		chaosInjected: reg.Counter("gliftd_chaos_injected_total",
			"Spurious 503 responses injected by the chaos fault-injection hook."),
		jobsCompleted: reg.CounterVec("gliftd_jobs_completed_total",
			"Engine executions finished, by fail-closed verdict.", "verdict"),
		cancels: reg.Counter("gliftd_cancel_requests_total",
			"DELETE /jobs/{id} requests against known jobs."),
		cacheHits: reg.Counter("gliftd_cache_hits_total",
			"Submissions answered from the content-addressed result cache."),
		cacheMisses: reg.Counter("gliftd_cache_misses_total",
			"Submissions that had to run (or join) an engine execution."),
		coalesced: reg.Counter("gliftd_jobs_coalesced_total",
			"Submissions served by an identical job already queued or running."),
		cacheEntries: reg.Gauge("gliftd_cache_entries",
			"Completed reports currently held in the result cache."),
		queueDepth: reg.Gauge("gliftd_queue_depth",
			"Jobs waiting for a worker."),
		workers: reg.Gauge("gliftd_workers",
			"Configured analysis worker count."),
		workersBusy: reg.Gauge("gliftd_workers_busy",
			"Workers currently running an engine execution."),
		repairJobs: reg.Counter("gliftd_repair_jobs_total",
			"Repair-mode jobs executed (each runs the analyze/mask/re-verify loop)."),
		repairRounds: reg.Counter("gliftd_repair_rounds_total",
			"Analyze/mask/re-verify rounds run across all repair jobs."),
		repairMasked: reg.Counter("gliftd_repair_masked_stores_total",
			"Stores masked in the final patched builds of completed repair jobs."),
		storeHits: reg.Counter("gliftd_store_hits_total",
			"Submissions answered from the persistent result store after full integrity validation."),
		storePuts: reg.Counter("gliftd_store_puts_total",
			"Completed reports durably written (fsynced) to the persistent store."),
		storePutErrors: reg.Counter("gliftd_store_put_errors_total",
			"Store writes that failed (capacity or I/O); the result stayed memory-only."),
		storeQuarantined: reg.Counter("gliftd_store_quarantined_total",
			"Records that failed integrity validation and were quarantined instead of served."),
		storeEvictions: reg.Counter("gliftd_store_evictions_total",
			"Records evicted oldest-first to respect the store byte cap."),
		storeRecovered: reg.Counter("gliftd_store_recovered_total",
			"Valid records re-indexed by startup recovery."),
		storeEntries: reg.Gauge("gliftd_store_entries",
			"Records currently indexed in the persistent store."),
		storeBytes: reg.Gauge("gliftd_store_bytes",
			"Total bytes of records currently indexed in the persistent store."),
		runDur: reg.HistogramVec("glift_engine_run_seconds",
			"Wall time of one complete engine exploration, by verdict.", obs.RunBuckets, "verdict"),
		engCycles: reg.Counter("glift_engine_cycles_total",
			"Simulated machine cycles across all engine runs."),
		engPaths: reg.Counter("glift_engine_paths_total",
			"Path states processed from the exploration worklist."),
		engForks: reg.Counter("glift_engine_forks_total",
			"X-PC concretization forks."),
		engMerges: reg.Counter("glift_engine_merges_total",
			"Conservative-state-table superstate widenings."),
		engPrunes: reg.Counter("glift_engine_prunes_total",
			"Paths pruned as substates of a table entry."),
		engEscalations: reg.Counter("glift_engine_widen_escalations_total",
			"Soft-memory-budget widening escalations."),
		engTableStates: reg.Gauge("glift_engine_table_states",
			"Conservative-state-table entries across currently running explorations."),
		engPeakMem: reg.Gauge("glift_engine_peak_mem_bytes",
			"Largest approximate table-plus-worklist footprint any single run has reached."),
		engCyclesPerSec: reg.Gauge("glift_engine_cycles_per_second",
			"Exploration throughput over the most recent progress interval."),
	}
	m.workers.Set(float64(workers))
	return m
}

// engineProgress mirrors one running engine's Progress stream into the
// registry, converting the stream's cumulative Stats into counter deltas
// so concurrent jobs aggregate correctly. It runs on the job's worker
// goroutine and forwards every snapshot to the job's own sink.
type engineProgress struct {
	m    *promMetrics
	next func(glift.Progress)
	prev glift.Stats
}

// counterDelta clamps a cumulative-feed delta at zero. Registry counters
// panic on negative additions, so a feed that ever reports a smaller
// cumulative value than before (an observer reused across runs, say) must
// under-count briefly and catch up on the next snapshot rather than take
// the whole exporter down.
func counterDelta[T int | int64 | uint64](cur, prev T) float64 {
	if cur <= prev {
		return 0
	}
	return float64(cur - prev)
}

func (ep *engineProgress) observe(p glift.Progress) {
	s, m := p.Stats, ep.m
	m.engCycles.Add(counterDelta(s.Cycles, ep.prev.Cycles))
	m.engPaths.Add(counterDelta(s.Paths, ep.prev.Paths))
	m.engForks.Add(counterDelta(s.Forks, ep.prev.Forks))
	m.engMerges.Add(counterDelta(s.Merges, ep.prev.Merges))
	m.engPrunes.Add(counterDelta(s.Prunes, ep.prev.Prunes))
	m.engEscalations.Add(counterDelta(s.Escalations, ep.prev.Escalations))
	m.engTableStates.Add(float64(s.TableStates - ep.prev.TableStates))
	m.engPeakMem.SetMax(float64(s.PeakMemBytes))
	if dw := s.WallNanos - ep.prev.WallNanos; dw > 0 && s.Cycles > ep.prev.Cycles {
		m.engCyclesPerSec.Set(float64(s.Cycles-ep.prev.Cycles) / (float64(dw) / 1e9))
	}
	ep.prev = s

	if p.Done {
		// The run's state table is released with the engine; remove its
		// contribution so the gauge tracks live explorations only.
		m.engTableStates.Add(-float64(s.TableStates))
	}
	if ep.next != nil {
		ep.next(p)
	}
}

// syncStoreMetricsLocked folds the store's cumulative activity counters
// into the registry as deltas and refreshes the size gauges. The caller
// holds Server.mu, which guards prevStore.
func (s *Server) syncStoreMetricsLocked() {
	if s.store == nil {
		return
	}
	st := s.store.Stats()
	p := &s.prom.prevStore
	s.prom.storePuts.Add(counterDelta(st.Puts, p.Puts))
	s.prom.storePutErrors.Add(counterDelta(st.PutErrors, p.PutErrors))
	s.prom.storeQuarantined.Add(counterDelta(st.Quarantined, p.Quarantined))
	s.prom.storeEvictions.Add(counterDelta(st.Evictions, p.Evictions))
	s.prom.storeRecovered.Add(counterDelta(st.Recovered, p.Recovered))
	*p = st
	s.prom.storeEntries.Set(float64(s.store.Len()))
	s.prom.storeBytes.Set(float64(s.store.Bytes()))
}

// instrument wraps the API with the request-latency histogram.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		s.prom.httpDur.With(routeLabel(r), strconv.Itoa(sw.code)).
			Observe(time.Since(start).Seconds())
	})
}

// statusWriter captures the response status for the latency histogram.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so SSE streams flush through the
// instrumentation layer instead of buffering until the job ends.
func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// routeLabel normalizes the request path to its route pattern so the
// histogram's label set stays bounded — neither job IDs nor arbitrary
// not-found paths may mint new series.
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/jobs/") && strings.HasSuffix(p, "/events"):
		p = "/jobs/{id}/events"
	case strings.HasPrefix(p, "/jobs/"):
		p = "/jobs/{id}"
	case p == "/jobs", p == "/metrics", p == "/metrics.json", p == "/healthz":
	default:
		p = "other"
	}
	return r.Method + " " + p
}
