package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/glift"
)

// get fetches a raw body with an optional Accept header.
func (c *testClient) get(path, accept string) (*http.Response, string) {
	c.t.Helper()
	req, err := http.NewRequest("GET", c.srv.URL+path, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp, string(body)
}

// TestMetricsPrometheusExposition: after a real workload, /metrics defaults
// to the Prometheus text format and carries both service-derived and
// engine-derived series with plausible values; the JSON shape stays
// reachable via Accept and /metrics.json.
func TestMetricsPrometheusExposition(t *testing.T) {
	c, _ := newTestClient(t, Config{Workers: 2, QueueDepth: 8})

	if code, st := c.do("POST", "/jobs?wait=1", &JobRequest{
		Source: violSrc, Policy: violPolicy(t),
	}); code != http.StatusConflict || st.Verdict != "violations" {
		t.Fatalf("violating job: code=%d verdict=%q", code, st.Verdict)
	}
	if code, st := c.do("POST", "/jobs?wait=1", &JobRequest{
		Source: cleanSrc, Policy: PolicyRequest{Name: "clean"},
	}); code != http.StatusOK || st.Verdict != "verified" {
		t.Fatalf("clean job: code=%d verdict=%q", code, st.Verdict)
	}

	resp, body := c.get("/metrics", "")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("default /metrics Content-Type = %q, want Prometheus text", ct)
	}
	for _, series := range []string{
		// service-derived
		"# TYPE gliftd_http_request_duration_seconds histogram",
		`gliftd_http_request_duration_seconds_bucket{route="POST /jobs",code="200",le="+Inf"}`,
		"gliftd_jobs_submitted_total 2",
		`gliftd_jobs_completed_total{verdict="verified"} 1`,
		`gliftd_jobs_completed_total{verdict="violations"} 1`,
		"gliftd_workers 2",
		"gliftd_queue_depth 0",
		// engine-derived
		"# TYPE glift_engine_run_seconds histogram",
		`glift_engine_run_seconds_count{verdict="violations"} 1`,
		"glift_engine_cycles_total",
		"glift_engine_forks_total",
		"glift_engine_paths_total",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
	// Both completed runs released their table states.
	if !strings.Contains(body, "glift_engine_table_states 0") {
		t.Errorf("table-states gauge not drained after completion")
	}
	// An unknown path must not mint a new route label.
	c.get("/no/such/path", "")
	_, body = c.get("/metrics", "")
	if !strings.Contains(body, `route="GET other"`) || strings.Contains(body, "/no/such/path") {
		t.Errorf("unbounded route label: %q", body)
	}

	resp, body = c.get("/metrics", "application/json")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Accept: application/json got Content-Type %q", ct)
	}
	if !strings.Contains(body, `"jobs_submitted"`) {
		t.Errorf("negotiated JSON body missing legacy fields: %s", body)
	}
	resp, body2 := c.get("/metrics.json", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body2, `"jobs_submitted"`) {
		t.Errorf("/metrics.json: code=%d body=%s", resp.StatusCode, body2)
	}
}

// TestEngineProgressNonMonotonic: the delta feed must survive cumulative
// readings that go backwards. Registry counters panic on negative Add, so
// the guard clamps such intervals instead of crashing the job's worker
// goroutine, and the Done emission still drains the table-states gauge.
func TestEngineProgressNonMonotonic(t *testing.T) {
	m := newPromMetrics(1)
	ep := &engineProgress{m: m}

	ep.observe(glift.Progress{
		Stats: glift.Stats{Cycles: 1000, Paths: 10, Forks: 5, TableStates: 4, WallNanos: 100},
	})
	if v := m.engTableStates.Value(); v != 4 {
		t.Errorf("table-states gauge = %v, want 4", v)
	}

	// A regressed snapshot: every cumulative field below its predecessor.
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("non-monotonic progress snapshot panicked the exporter: %v", r)
		}
	}()
	ep.observe(glift.Progress{
		Stats: glift.Stats{Cycles: 900, Paths: 8, Forks: 3, TableStates: 3, WallNanos: 90},
	})
	// The Done emission must drain the gauge back to zero rather than
	// leaving the finished run's table counted forever.
	ep.observe(glift.Progress{
		Stats: glift.Stats{Cycles: 1100, Paths: 11, Forks: 6, TableStates: 5, WallNanos: 120},
		Done:  true,
	})
	if v := m.engTableStates.Value(); v != 0 {
		t.Errorf("table-states gauge = %v after Done, want 0", v)
	}
}

// parseSeries reads a Prometheus text exposition into a map from each
// sample's name-plus-labels (exactly as printed) to its value.
func parseSeries(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// metricsFromSeries derives every /metrics.json field from the /metrics
// series: the field meanings the JSON shape documents, restated over the
// registry.
func metricsFromSeries(t *testing.T, series map[string]float64) MetricsJSON {
	t.Helper()
	val := func(name string) float64 {
		v, ok := series[name]
		if !ok {
			t.Errorf("/metrics has no series %s", name)
		}
		return v
	}
	n := func(name string) int64 { return int64(val(name)) }
	byVerdict := map[string]int64{}
	var completed int64
	const prefix = `gliftd_jobs_completed_total{verdict="`
	for name, v := range series {
		if verdict, ok := strings.CutPrefix(name, prefix); ok {
			byVerdict[strings.TrimSuffix(verdict, `"}`)] = int64(v)
			completed += int64(v)
		}
	}
	submitted, rejected, shed := n("gliftd_jobs_submitted_total"), n("gliftd_jobs_rejected_total"), n("gliftd_jobs_shed_total")
	repairJobs, repairRounds := n("gliftd_repair_jobs_total"), n("gliftd_repair_rounds_total")
	return MetricsJSON{
		JobsSubmitted:   submitted - rejected - shed,
		JobsCompleted:   completed,
		JobsByVerdict:   byVerdict,
		CacheHits:       n("gliftd_cache_hits_total"),
		CacheMisses:     n("gliftd_cache_misses_total"),
		CacheEntries:    int(n("gliftd_cache_entries")),
		JobsCoalesced:   n("gliftd_jobs_coalesced_total"),
		EngineRuns:      completed - repairJobs + repairRounds,
		JobsRejected:    rejected,
		DeadlineShed:    shed,
		QuotaRejected:   n("gliftd_quota_rejected_total"),
		ChaosInjected:   n("gliftd_chaos_injected_total"),
		CancelRequests:  n("gliftd_cancel_requests_total"),
		QueueDepth:      int(n("gliftd_queue_depth")),
		Workers:         int(n("gliftd_workers")),
		BusyWorkers:     int(n("gliftd_workers_busy")),
		CyclesSimulated: uint64(val("glift_engine_cycles_total")),

		RepairJobs:         repairJobs,
		RepairRounds:       repairRounds,
		RepairMaskedStores: n("gliftd_repair_masked_stores_total"),

		StreamSubscribers: int(n("gliftd_stream_subscribers")),
		StreamTopics:      int(n("gliftd_stream_topics")),

		StoreHits:        n("gliftd_store_hits_total"),
		StoreEntries:     int(n("gliftd_store_entries")),
		StoreBytes:       n("gliftd_store_bytes"),
		StoreRecovered:   n("gliftd_store_recovered_total"),
		StoreQuarantined: n("gliftd_store_quarantined_total"),
		StorePuts:        n("gliftd_store_puts_total"),
		StorePutErrors:   n("gliftd_store_put_errors_total"),
		StoreEvictions:   n("gliftd_store_evictions_total"),
	}
}

// TestMetricsJSONMatchesSeries drives one server through every event the
// service accounts for — a cold run, a memory hit, a store hit, a
// coalesced duplicate, a queue-full reject, a deadline shed, a quota
// reject, a chaos 503, a cancel and a repair job — and then checks that
// every /metrics.json field equals the value derived from the /metrics
// series. Draining is server state with no series; it must read false.
func TestMetricsJSONMatchesSeries(t *testing.T) {
	s, err := New(Config{
		Workers: 1, QueueDepth: 1, CacheEntries: 1, StoreDir: t.TempDir(),
		TenantRate: 0.0001, TenantBurst: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	// Every request is served on this goroutine, which orders the chaos
	// toggle below with each read of it. Each request gets a fresh tenant
	// unless it names one, so only the quota step exhausts a bucket.
	tenants := 0
	serve := func(method, path string, body any, tenant string) *httptest.ResponseRecorder {
		t.Helper()
		rd := io.Reader(http.NoBody)
		if body != nil {
			b, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(b)
		}
		req := httptest.NewRequest(method, path, rd)
		if tenant == "" {
			tenants++
			tenant = fmt.Sprintf("tenant-%d", tenants)
		}
		req.Header.Set("X-Tenant", tenant)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	submit := func(path string, req *JobRequest, tenant string, want int) JobStatusJSON {
		t.Helper()
		rec := serve("POST", path, req, tenant)
		if rec.Code != want {
			t.Fatalf("POST %s: code=%d, want %d: %s", path, rec.Code, want, rec.Body)
		}
		var st JobStatusJSON
		if want < 300 || want == http.StatusConflict {
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	status := func(id string) JobStatusJSON {
		t.Helper()
		var st JobStatusJSON
		if err := json.Unmarshal(serve("GET", "/jobs/"+id, nil, "").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	awaitState := func(id, state string) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Minute); status(id).State != state; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("job %s never reached %s", id, state)
			}
		}
	}

	viol := &JobRequest{Source: violSrc, Policy: violPolicy(t)}
	slow := &JobRequest{Source: slowSrc, Policy: PolicyRequest{Name: "slow"}, Options: slowOptions()}

	// Cold run, then a memory hit.
	submit("/jobs?wait=1", viol, "", http.StatusConflict)
	if st := submit("/jobs?wait=1", viol, "", http.StatusConflict); !st.CacheHit {
		t.Fatal("resubmission was not a cache hit")
	}
	// Quota: a one-token bucket admits one submission (a hit) and refuses
	// the next.
	submit("/jobs?wait=1", viol, "greedy", http.StatusConflict)
	submit("/jobs", viol, "greedy", http.StatusTooManyRequests)
	// Chaos: a spurious 503 before any admission work.
	s.cfg.ChaosRejectPercent = 100
	submit("/jobs", viol, "", http.StatusServiceUnavailable)
	s.cfg.ChaosRejectPercent = 0

	// A blocker occupies the only worker; its duplicate coalesces.
	blocker := submit("/jobs", slow, "", http.StatusAccepted)
	if dup := submit("/jobs", slow, "", http.StatusAccepted); dup.ID != blocker.ID {
		t.Fatalf("duplicate got job %s, want coalesced onto %s", dup.ID, blocker.ID)
	}
	awaitState(blocker.ID, stateRunning)
	// The queue's one slot fills; the next job is rejected, and a job whose
	// deadline is below the predicted wait (two runs of the cold job) is
	// shed.
	queued := submit("/jobs", &JobRequest{Source: distinctSrc(0), Policy: PolicyRequest{Name: "q"}}, "", http.StatusAccepted)
	submit("/jobs", &JobRequest{Source: distinctSrc(1), Policy: PolicyRequest{Name: "full"}}, "", http.StatusServiceUnavailable)
	submit("/jobs", &JobRequest{
		Source: distinctSrc(2), Policy: PolicyRequest{Name: "shed"}, Options: OptionsRequest{DeadlineMS: 1},
	}, "", http.StatusServiceUnavailable)

	// Cancel the blocker; the queued job then runs, and its result evicts
	// the cold job's from the one-entry memory cache.
	if rec := serve("DELETE", "/jobs/"+blocker.ID, nil, ""); rec.Code != http.StatusAccepted {
		t.Fatalf("cancel: code=%d", rec.Code)
	}
	awaitState(blocker.ID, stateDone)
	awaitState(queued.ID, stateDone)
	// The cold job now comes back from the store.
	if st := submit("/jobs?wait=1", viol, "", http.StatusConflict); !st.CacheHit {
		t.Fatal("store-served resubmission was not a cache hit")
	}
	if st := submit("/jobs?wait=1", repairReq(), "", http.StatusOK); st.Repair == nil {
		t.Fatal("repair job returned no repair payload")
	}

	series := parseSeries(t, serve("GET", "/metrics", nil, "").Body.String())
	var got MetricsJSON
	if err := json.Unmarshal(serve("GET", "/metrics.json", nil, "").Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if want := metricsFromSeries(t, series); !reflect.DeepEqual(got, want) {
		t.Errorf("/metrics.json disagrees with /metrics:\n json   %+v\n series %+v", got, want)
	}

	// Every step above registered exactly once.
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"jobs_submitted", got.JobsSubmitted, 8},
		{"jobs_completed", got.JobsCompleted, 4},
		{"engine_runs", got.EngineRuns, 5},
		{"cache_hits", got.CacheHits, 3},
		{"store_hits", got.StoreHits, 1},
		{"jobs_coalesced", got.JobsCoalesced, 1},
		{"jobs_rejected", got.JobsRejected, 1},
		{"deadline_shed", got.DeadlineShed, 1},
		{"quota_rejected", got.QuotaRejected, 1},
		{"chaos_injected", got.ChaosInjected, 1},
		{"cancel_requests", got.CancelRequests, 1},
		{"repair_jobs", got.RepairJobs, 1},
		{"repair_rounds", got.RepairRounds, 2},
		{"incomplete", got.JobsByVerdict["incomplete"], 1},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if got.Draining || got.CyclesSimulated == 0 || got.StorePuts == 0 {
		t.Errorf("draining=%v cycles=%d store_puts=%d, want false/>0/>0", got.Draining, got.CyclesSimulated, got.StorePuts)
	}
}
