package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"
)

// doRaw performs one request with arbitrary headers and returns the raw
// response (closed body, drained status decoded into JobStatusJSON when
// possible). Admission tests need the headers the sugar in do() hides.
func (c *testClient) doRaw(method, path string, body any, hdr map[string]string) *http.Response {
	c.t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, c.srv.URL+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestTenantQuotaBucket unit-tests the token bucket under a fake clock:
// burst admits, exhaustion rejects with an accurate Retry-After, refill
// re-admits, and tenants are independent.
func TestTenantQuotaBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	q := newTenantQuotas(2, 4) // 2 tokens/sec, burst 4
	q.now = func() time.Time { return now }

	for i := 0; i < 4; i++ {
		if ok, _ := q.admit("a"); !ok {
			t.Fatalf("burst admit %d refused", i)
		}
	}
	ok, retry := q.admit("a")
	if ok {
		t.Fatal("admitted past burst")
	}
	// Empty bucket at 2 tokens/sec: next token in 500ms.
	if retry != 500*time.Millisecond {
		t.Errorf("retry = %s, want 500ms", retry)
	}
	// Tenant b is untouched by a's exhaustion.
	if ok, _ := q.admit("b"); !ok {
		t.Error("independent tenant refused")
	}
	// One second refills two tokens.
	now = now.Add(time.Second)
	for i := 0; i < 2; i++ {
		if ok, _ := q.admit("a"); !ok {
			t.Errorf("post-refill admit %d refused", i)
		}
	}
	if ok, _ := q.admit("a"); ok {
		t.Error("admitted a third token after a 2-token refill")
	}

	// Default burst: ceil(rate), floor 1.
	if q := newTenantQuotas(0.5, 0); q.burst != 1 {
		t.Errorf("default burst for rate 0.5 = %v, want 1", q.burst)
	}
	if q := newTenantQuotas(2.3, 0); q.burst != 3 {
		t.Errorf("default burst for rate 2.3 = %v, want 3", q.burst)
	}
}

// TestTenantQuotaSweep: at the bucket cap, fully-refilled (idle) buckets
// are dropped so one tenant per request cannot grow memory unboundedly.
func TestTenantQuotaSweep(t *testing.T) {
	now := time.Unix(1000, 0)
	q := newTenantQuotas(1, 1)
	q.now = func() time.Time { return now }
	for i := 0; i < maxTenantBuckets; i++ {
		q.admit(fmt.Sprintf("t%d", i))
	}
	if len(q.buckets) != maxTenantBuckets {
		t.Fatalf("buckets = %d, want %d", len(q.buckets), maxTenantBuckets)
	}
	// All existing buckets refill within a second; the next new tenant
	// triggers the sweep and the map collapses.
	now = now.Add(2 * time.Second)
	q.admit("fresh")
	if len(q.buckets) != 1 {
		t.Errorf("post-sweep buckets = %d, want 1", len(q.buckets))
	}
}

// TestServiceQuotaRejects429: an over-quota tenant gets 429 + Retry-After;
// a different X-Tenant is admitted; the default bucket covers unlabeled
// requests.
func TestServiceQuotaRejects429(t *testing.T) {
	// Glacial refill so the second submission within the test window is
	// deterministically over quota.
	c, _ := newTestClient(t, Config{
		Workers: 1, QueueDepth: 8, TenantRate: 0.0001, TenantBurst: 1,
	})
	req := &JobRequest{Source: cleanSrc, Policy: PolicyRequest{Name: "p"}}

	if resp := c.doRaw("POST", "/jobs?wait=1", req, map[string]string{"X-Tenant": "acme"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("first acme submission: code=%d", resp.StatusCode)
	}
	resp := c.doRaw("POST", "/jobs?wait=1", req, map[string]string{"X-Tenant": "acme"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second acme submission: code=%d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// Quota applies before the cache: even a would-be cache hit is rejected.
	if m := c.metrics(); m.QuotaRejected != 1 {
		t.Errorf("quota_rejected = %d, want 1", m.QuotaRejected)
	}
	// A different tenant has its own bucket (and lands a cache hit).
	if resp := c.doRaw("POST", "/jobs?wait=1", req, map[string]string{"X-Tenant": "umbrella"}); resp.StatusCode != http.StatusOK {
		t.Errorf("other tenant: code=%d", resp.StatusCode)
	}
	// No header → the default bucket, also fresh.
	if resp := c.doRaw("POST", "/jobs?wait=1", req, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("default tenant: code=%d", resp.StatusCode)
	}
	if resp := c.doRaw("POST", "/jobs?wait=1", req, nil); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("default tenant second submission: code=%d, want 429", resp.StatusCode)
	}
}

// TestServiceDeadlineShed: with every worker busy and a run-duration EWMA
// that prices the queue wait beyond the job's deadline, the submission is
// shed 503 + Retry-After instead of queued to die.
func TestServiceDeadlineShed(t *testing.T) {
	c, s := newTestClient(t, Config{Workers: 1, QueueDepth: 8})

	_, blocker := c.do("POST", "/jobs", &JobRequest{
		Source: slowSrc, Policy: PolicyRequest{Name: "blocker"}, Options: slowOptions(),
	})
	waitBusy(t, s)

	// Seed the EWMA white-box: completed jobs "take an hour", so any
	// realistic deadline is unmeetable behind the busy worker.
	s.mu.Lock()
	s.load.avgRunNanos = float64(time.Hour)
	s.mu.Unlock()

	resp := c.doRaw("POST", "/jobs", &JobRequest{
		Source: cleanSrc, Policy: PolicyRequest{Name: "p"},
		Options: OptionsRequest{DeadlineMS: 2000},
	}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("doomed submission: code=%d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response without Retry-After")
	}
	m := c.metrics()
	if m.DeadlineShed != 1 {
		t.Errorf("deadline_shed = %d, want 1", m.DeadlineShed)
	}
	// Shed jobs never count as submitted-and-lost: queue stays empty.
	if m.QueueDepth != 0 {
		t.Errorf("queue_depth = %d, want 0", m.QueueDepth)
	}
	// A deadline-free job is still admitted — shedding is deadline-aware,
	// not a load switch.
	if code, _ := c.do("POST", "/jobs", &JobRequest{Source: cleanSrc, Policy: PolicyRequest{Name: "p"}}); code != http.StatusAccepted {
		t.Errorf("deadline-free submission: code=%d, want 202", code)
	}

	c.do("DELETE", "/jobs/"+blocker.ID, nil)
}

// waitBusy blocks until the single worker has picked up a job.
func waitBusy(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		s.mu.Lock()
		busy := s.load.busyWorkers
		s.mu.Unlock()
		if busy > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never became busy")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// distinctSrc yields fast-verifying programs with distinct content hashes —
// the job key is blind to the policy name, so distinct jobs need distinct
// program bytes.
func distinctSrc(i int) string {
	return fmt.Sprintf("start: mov #0x0280, sp\n        mov #%d, r10\nloop:   jmp loop\n", i+1)
}

// TestServiceOverload503: a full queue rejects with 503 + Retry-After and
// counts the rejection; capacity freed by cancellation re-admits.
func TestServiceOverload503(t *testing.T) {
	c, s := newTestClient(t, Config{Workers: 1, QueueDepth: 1})

	_, blocker := c.do("POST", "/jobs", &JobRequest{
		Source: slowSrc, Policy: PolicyRequest{Name: "blocker"}, Options: slowOptions(),
	})
	waitBusy(t, s)

	// Fill the single queue slot with a distinct job.
	code, queued := c.do("POST", "/jobs", &JobRequest{Source: distinctSrc(0), Policy: PolicyRequest{Name: "q1"}})
	if code != http.StatusAccepted {
		t.Fatalf("queued submission: code=%d", code)
	}

	resp := c.doRaw("POST", "/jobs", &JobRequest{Source: distinctSrc(1), Policy: PolicyRequest{Name: "q2"}}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload submission: code=%d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("overload response without Retry-After")
	}
	m := c.metrics()
	if m.JobsRejected != 1 {
		t.Errorf("jobs_rejected = %d, want 1", m.JobsRejected)
	}
	if m.QueueDepth != 1 {
		t.Errorf("queue_depth = %d, want 1", m.QueueDepth)
	}

	// Cancelling the blocker frees the worker; the queue drains and the
	// previously rejected job is admitted on retry.
	c.do("DELETE", "/jobs/"+blocker.ID, nil)
	c.awaitDone(queued.ID, 2*time.Minute)
	code, st := c.do("POST", "/jobs?wait=1", &JobRequest{Source: distinctSrc(1), Policy: PolicyRequest{Name: "q2"}})
	if code != http.StatusOK || st.Verdict != "verified" {
		t.Errorf("retried submission: code=%d verdict=%q", code, st.Verdict)
	}
}

// TestServiceCancelFreesWorker: DELETE of a running job releases its worker
// promptly — the next submission runs to completion — and the cancelled
// (Incomplete) result is neither cached nor persisted.
func TestServiceCancelFreesWorker(t *testing.T) {
	dir := t.TempDir()
	c, s := newTestClient(t, Config{Workers: 1, QueueDepth: 8, StoreDir: dir})

	_, victim := c.do("POST", "/jobs", &JobRequest{
		Source: slowSrc, Policy: PolicyRequest{Name: "victim"}, Options: slowOptions(),
	})
	waitBusy(t, s)
	if code, _ := c.do("DELETE", "/jobs/"+victim.ID, nil); code != http.StatusAccepted {
		t.Fatalf("cancel: code=%d", code)
	}
	c.awaitDone(victim.ID, 2*time.Minute)

	// The worker is free again: a fresh job completes normally.
	code, st := c.do("POST", "/jobs?wait=1", &JobRequest{Source: cleanSrc, Policy: PolicyRequest{Name: "after"}})
	if code != http.StatusOK || st.Verdict != "verified" {
		t.Fatalf("post-cancel submission: code=%d verdict=%q", code, st.Verdict)
	}
	m := c.metrics()
	if m.BusyWorkers != 0 || m.QueueDepth != 0 {
		t.Errorf("busy=%d depth=%d after drain, want 0/0", m.BusyWorkers, m.QueueDepth)
	}
	// Only the completed run is durable; the Incomplete verdict is not.
	if m.StorePuts != 1 || m.CacheEntries != 1 {
		t.Errorf("store_puts=%d cache_entries=%d, want 1/1 (incomplete results are not stored)",
			m.StorePuts, m.CacheEntries)
	}
	// DELETE of an already-finished job acknowledges with 200 (nothing left
	// to cancel) and still returns the final status.
	if code, st := c.do("DELETE", "/jobs/"+victim.ID, nil); code != http.StatusOK || st.Verdict != "incomplete" {
		t.Errorf("cancel of finished job: code=%d verdict=%q, want 200/incomplete", code, st.Verdict)
	}
}

// TestServiceQueueDepthGauge: the transition-updated gauge tracks real
// enqueue/dequeue events exactly — never a sampled channel length.
func TestServiceQueueDepthGauge(t *testing.T) {
	c, s := newTestClient(t, Config{Workers: 1, QueueDepth: 8})

	_, blocker := c.do("POST", "/jobs", &JobRequest{
		Source: slowSrc, Policy: PolicyRequest{Name: "blocker"}, Options: slowOptions(),
	})
	waitBusy(t, s)

	ids := make([]string, 3)
	for i := range ids {
		code, st := c.do("POST", "/jobs", &JobRequest{
			Source: distinctSrc(i), Policy: PolicyRequest{Name: fmt.Sprintf("d%d", i)},
		})
		if code != http.StatusAccepted {
			t.Fatalf("submission %d: code=%d", i, code)
		}
		ids[i] = st.ID
		if m := c.metrics(); m.QueueDepth != i+1 {
			t.Errorf("after %d enqueues: queue_depth = %d", i+1, m.QueueDepth)
		}
	}

	c.do("DELETE", "/jobs/"+blocker.ID, nil)
	for _, id := range ids {
		c.awaitDone(id, 2*time.Minute)
	}
	m := c.metrics()
	if m.QueueDepth != 0 || m.BusyWorkers != 0 {
		t.Errorf("after drain: queue_depth=%d busy=%d, want 0/0", m.QueueDepth, m.BusyWorkers)
	}
}

// TestServiceChaosInjection: with ChaosRejectPercent=100 every submission
// is answered with a spurious 503 + Retry-After before any work happens —
// the fault clients must absorb in the soak harness.
func TestServiceChaosInjection(t *testing.T) {
	c, _ := newTestClient(t, Config{Workers: 1, QueueDepth: 8, ChaosRejectPercent: 100})
	for i := 0; i < 3; i++ {
		resp := c.doRaw("POST", "/jobs?wait=1", &JobRequest{Source: cleanSrc, Policy: PolicyRequest{Name: "p"}}, nil)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("chaos submission %d: code=%d, want 503", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("chaos 503 without Retry-After")
		}
	}
	m := c.metrics()
	if m.ChaosInjected != 3 || m.JobsSubmitted != 0 || m.EngineRuns != 0 {
		t.Errorf("chaos metrics: injected=%d submitted=%d runs=%d, want 3/0/0",
			m.ChaosInjected, m.JobsSubmitted, m.EngineRuns)
	}
}
