// gliftd is the long-running analysis daemon: the glift engine behind an
// HTTP API with a bounded worker pool, per-job deadlines, live progress,
// cancellation, a content-addressed result cache, and an optional
// crash-safe persistent result store that survives restarts.
//
// Besides one-shot analysis, a submission with "mode": "repair" runs the
// secure430 analyze→mask→re-verify round loop (internal/repair — literally
// the same code the CLI runs) server-side: the result carries the patched
// assembly, per-round counts, the targeted-vs-always-on overhead comparison
// and the final report, with a round event on the job's SSE stream at every
// round boundary. See README.md "Repair as a service".
//
// Every job explores sequentially on the compiled backend; the daemon's
// parallelism is across jobs, one per -workers slot.
//
// Usage:
//
//	gliftd -addr :8430 -workers 4 -queue 64 -cache 1024 -deadline 2m \
//	       -store-dir /var/lib/gliftd -store-max-bytes 1073741824 \
//	       -tenant-rate 50 -tenant-burst 100
//
// API (see README.md "Running as a service" for curl examples):
//
//	POST   /jobs          submit {source|ihex, policy, options}; ?wait=1 blocks;
//	                      {mode: "repair", repair: {...}} runs the repair loop
//	GET    /jobs/{id}     status + live progress, report (and, for repair
//	                      jobs, the repair payload) when done
//	GET    /jobs/{id}/events  live SSE stream: state/progress/trace/round
//	                      events, terminal verdict event, Last-Event-ID resume
//	DELETE /jobs/{id}     cancel; the job completes with verdict incomplete
//	GET    /metrics       Prometheus text exposition (service + engine + store
//	                      series); the legacy JSON shape via Accept: application/json
//	GET    /metrics.json  jobs by verdict, cache/store hits, queue depth, ...
//	GET    /healthz       liveness
//
// Durability: with -store-dir set, completed Verified/Violations reports are
// fsynced to a content-addressed on-disk store before the submitter is
// answered, and startup recovery re-validates (SHA-256) and re-indexes every
// surviving record — a torn or corrupt record is quarantined, never served.
//
// Admission: per-tenant token buckets (X-Tenant header) reject over-quota
// submissions 429 + Retry-After; deadline-aware shedding rejects jobs whose
// deadline cannot be met at the predicted queue wait 503 + Retry-After; a
// full queue rejects 503 + Retry-After.
//
// Completed jobs map the CLI verdict/exit-code taxonomy onto HTTP statuses:
// verified → 200, violations → 409, incomplete → 504, internal error → 500;
// malformed submissions → 400.
//
// Logs are structured JSON on stderr (-log-level debug|info|warn|error),
// one line per event with job_id/tenant/verdict fields where applicable.
//
// Shutdown (SIGINT/SIGTERM) is ordered and bounded by -drain-timeout:
// stop accepting connections and drain in-flight HTTP, then drain the job
// queue and workers (persisting completed results), then stop the pool.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/target"
)

func main() {
	addr := flag.String("addr", ":8430", "listen address")
	targetName := flag.String("target", "", "default "+target.FlagHelp()+" for jobs that omit the target field")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent analysis workers")
	queue := flag.Int("queue", 64, "queued-job bound (a full queue rejects with 503)")
	cache := flag.Int("cache", 1024, "content-addressed result cache entries")
	deadline := flag.Duration("deadline", 0, "default per-job deadline (0: none)")
	storeDir := flag.String("store-dir", "", "crash-safe persistent result store directory (empty: memory-only cache)")
	storeMax := flag.Int64("store-max-bytes", 0, "persistent store byte cap, oldest evicted first (0: unbounded)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant admission rate in jobs/sec, keyed by X-Tenant (0: unlimited)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant token-bucket burst (0: ceil(rate))")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown bound: HTTP drain, then job-queue drain, then stop")
	streamRing := flag.Int("stream-ring", obs.DefaultRingEvents, "per-job event ring bound for GET /jobs/{id}/events (slow readers see gap events past this)")
	streamHeartbeat := flag.Duration("stream-heartbeat", 0, "SSE comment-heartbeat cadence on quiet streams (0: 15s default)")
	logLevel := flag.String("log-level", "info", "structured log threshold: debug, info, warn, or error")
	chaos503 := flag.Int("chaos-inject-503", 0, "TESTING: percent of submissions answered with a spurious 503 + Retry-After")
	chaosSlowWrite := flag.Duration("chaos-slow-write", 0, "TESTING: hold every store write half-written this long before fsync+rename")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: gliftd [flags] (see -help)")
		os.Exit(2)
	}
	level, err := parseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gliftd: %v\n", err)
		os.Exit(2)
	}
	// One JSON line per event on stderr: greppable by field (job_id, tenant,
	// verdict), machine-parseable by log shippers.
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	if _, err := target.Parse(*targetName); err != nil {
		fmt.Fprintf(os.Stderr, "gliftd: %v\n", err)
		os.Exit(2)
	}

	srv, err := service.New(service.Config{
		Workers:            *workers,
		QueueDepth:         *queue,
		CacheEntries:       *cache,
		DefaultDeadline:    *deadline,
		StoreDir:           *storeDir,
		StoreMaxBytes:      *storeMax,
		StoreWriteDelay:    *chaosSlowWrite,
		TenantRate:         *tenantRate,
		TenantBurst:        *tenantBurst,
		ChaosRejectPercent: *chaos503,
		StreamRingEvents:   *streamRing,
		StreamHeartbeat:    *streamHeartbeat,
		DefaultTarget:      *targetName,
		Logger:             logger,
	})
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}
	if st := srv.Store(); st != nil {
		stats := st.Stats()
		logger.Info("result store recovered",
			"dir", st.Dir(), "entries", stats.Recovered, "bytes", st.Bytes(),
			"quarantined", stats.Quarantined, "tmp_cleaned", stats.TmpCleaned)
	}
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if *pprofOn {
		// Explicit registration instead of the package's DefaultServeMux
		// side effect, so profiling stays opt-in behind the flag.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	hs := &http.Server{Addr: *addr, Handler: mux}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()
	logger.Info("serving", "addr", *addr, "workers", *workers, "queue", *queue, "cache", *cache)

	select {
	case err := <-serveErr:
		// The listener failed before any signal (bad address, port in use).
		srv.Close()
		logger.Error("listener failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Ordered, bounded shutdown. One deadline covers all three stages so a
	// hung client or a long-running job cannot stall the exit forever:
	//  1. stop accepting connections and drain in-flight HTTP requests;
	//  2. drain the job queue and workers — completed results are persisted
	//     to the store before their waiters are released;
	//  3. stop the pool (anything still running after the deadline has been
	//     cancelled and completes Incomplete, which is never persisted).
	logger.Info("shutting down", "drain_bound", *drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		logger.Warn("http drain incomplete", "err", err)
		hs.Close() //nolint:errcheck // connections past the drain bound are cut, not waited on
	}
	if err := srv.Drain(shutdownCtx); err != nil {
		logger.Warn("job drain incomplete, cancelling stragglers", "err", err)
	}
	srv.Close()
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("listener error", "err", err)
	}
	logger.Info("stopped")
}

// parseLevel maps the -log-level flag to a slog level.
func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown -log-level %q (debug, info, warn, error)", s)
}
