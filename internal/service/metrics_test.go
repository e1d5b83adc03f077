package service

import (
	"io"
	"net/http"
	"strings"
	"testing"

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
