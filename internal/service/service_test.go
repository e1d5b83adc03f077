package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/glift"
	"repro/internal/target"
)

// cleanSrc verifies: no taint sources touched, trivial control flow.
const cleanSrc = `
start:  mov #0x0280, sp
        clr r10
loop:   jmp loop
`

// violSrc is the Figure 9 unmasked-store micro: a tainted-input-derived
// address escapes the tainted partition (C2), given the right policy.
const violSrc = `
start:  jmp tstart
tstart: mov &0x0020, r15
        mov #0x0200, r14
        add r15, r14
        mov #500, 0(r14)
done:   jmp done
tend:   nop
`

// slowSrc runs essentially forever under a huge widening threshold: the
// outer counter r11 makes every outer iteration a fresh state, so precise
// unrolling never converges — the job ends only by budget or cancellation.
const slowSrc = `
start:  mov #0x0280, sp
        clr r11
outer:  mov #0xffff, r10
lp:     dec r10
        jnz lp
        inc r11
        jmp outer
`

// violPolicy labels violSrc: P1 tainted input, tstart..tend tainted code,
// 0x0400..0x0800 the tainted data partition.
func violPolicy(t *testing.T) PolicyRequest {
	t.Helper()
	img, err := asm.AssembleSource(violSrc)
	if err != nil {
		t.Fatal(err)
	}
	return PolicyRequest{
		Name:           "viol",
		TaintedInPorts: []int{0},
		TaintedCode:    []RangeRequest{{Lo: img.MustSymbol("tstart"), Hi: img.MustSymbol("tend")}},
		TaintedData:    []RangeRequest{{Lo: 0x0400, Hi: 0x0800}},
	}
}

func slowOptions() OptionsRequest {
	return OptionsRequest{
		MaxCycles:     1 << 34,
		MaxPathCycles: 1 << 34,
		WidenAfter:    1 << 30,
	}
}

type testClient struct {
	t   *testing.T
	srv *httptest.Server
	s   *Server
}

func newTestClient(t *testing.T, cfg Config) (*testClient, *Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return &testClient{t: t, srv: hs, s: s}, s
}

// close shuts the frontend and the service down early; tests that model a
// process restart call this before reopening the same store directory.
// Safe with the registered Cleanup — both closes are idempotent.
func (c *testClient) close() {
	c.srv.Close()
	c.s.Close()
}

func (c *testClient) do(method, path string, body any) (int, JobStatusJSON) {
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
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatusJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		c.t.Fatalf("%s %s: decoding response: %v", method, path, err)
	}
	return resp.StatusCode, st
}

func (c *testClient) metrics() MetricsJSON {
	c.t.Helper()
	// The default /metrics representation is Prometheus text now; the JSON
	// shape stays reachable through content negotiation (and /metrics.json).
	req, err := http.NewRequest("GET", c.srv.URL+"/metrics", nil)
	if err != nil {
		c.t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsJSON
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		c.t.Fatal(err)
	}
	return m
}

// awaitDone polls a job until it reaches the done state.
func (c *testClient) awaitDone(id string, timeout time.Duration) JobStatusJSON {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		_, st := c.do("GET", "/jobs/"+id, nil)
		if st.State == stateDone {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.t.Fatalf("job %s did not finish within %s", id, timeout)
	return JobStatusJSON{}
}

// TestServiceMixedWorkload drives the full loop: concurrent submissions of
// a mix of verifying and violating jobs complete with correct verdicts and
// HTTP statuses, an identical resubmission is a recorded cache hit that
// skips engine execution, and /metrics agrees with the workload.
func TestServiceMixedWorkload(t *testing.T) {
	c, _ := newTestClient(t, Config{Workers: 4, QueueDepth: 32})
	vp := violPolicy(t)

	const perKind = 3
	type result struct {
		code int
		st   JobStatusJSON
	}
	results := make([]result, 2*perKind)
	var wg sync.WaitGroup
	for i := 0; i < perKind; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			// Distinct max_cycles give each clean job its own content key,
			// making the expected engine-run count deterministic.
			code, st := c.do("POST", "/jobs?wait=1", &JobRequest{
				Source:  cleanSrc,
				Policy:  PolicyRequest{Name: "clean"},
				Options: OptionsRequest{MaxCycles: 4_000_000 + uint64(i)},
			})
			results[i] = result{code, st}
		}(i)
		go func(i int) {
			defer wg.Done()
			code, st := c.do("POST", "/jobs?wait=1", &JobRequest{
				Source:  violSrc,
				Policy:  vp,
				Options: OptionsRequest{MaxCycles: 4_000_000 + uint64(i)},
			})
			results[perKind+i] = result{code, st}
		}(i)
	}
	wg.Wait()

	for i := 0; i < perKind; i++ {
		r := results[i]
		if r.code != http.StatusOK || r.st.Verdict != "verified" || !r.st.Report.Secure {
			t.Errorf("clean job %d: code=%d verdict=%q", i, r.code, r.st.Verdict)
		}
	}
	for i := 0; i < perKind; i++ {
		r := results[perKind+i]
		if r.code != http.StatusConflict || r.st.Verdict != "violations" {
			t.Errorf("violating job %d: code=%d verdict=%q", i, r.code, r.st.Verdict)
			continue
		}
		found := false
		for _, v := range r.st.Report.Violations {
			if v.Kind == "C2-memory-escape" {
				found = true
			}
		}
		if !found {
			t.Errorf("violating job %d: no C2 violation in %+v", i, r.st.Report.Violations)
		}
	}

	m := c.metrics()
	if m.EngineRuns != 2*perKind || m.CacheMisses != 2*perKind || m.CacheHits != 0 {
		t.Errorf("after mixed phase: runs=%d misses=%d hits=%d, want %d/%d/0",
			m.EngineRuns, m.CacheMisses, m.CacheHits, 2*perKind, 2*perKind)
	}

	// Byte-identical resubmission: served from the cache, engine not re-run.
	code, st := c.do("POST", "/jobs?wait=1", &JobRequest{
		Source:  cleanSrc,
		Policy:  PolicyRequest{Name: "clean"},
		Options: OptionsRequest{MaxCycles: 4_000_000},
	})
	if code != http.StatusOK || !st.CacheHit || st.Verdict != "verified" {
		t.Errorf("resubmission: code=%d cache_hit=%v verdict=%q", code, st.CacheHit, st.Verdict)
	}

	m = c.metrics()
	if m.CacheHits != 1 || m.EngineRuns != 2*perKind {
		t.Errorf("cache hit must skip the engine: hits=%d runs=%d", m.CacheHits, m.EngineRuns)
	}
	if m.JobsSubmitted != 2*perKind+1 || m.JobsCompleted != 2*perKind {
		t.Errorf("submitted=%d completed=%d", m.JobsSubmitted, m.JobsCompleted)
	}
	if m.JobsByVerdict["verified"] != perKind || m.JobsByVerdict["violations"] != perKind {
		t.Errorf("jobs_by_verdict = %v", m.JobsByVerdict)
	}
	if m.CyclesSimulated == 0 {
		t.Error("cycles_simulated_total should be non-zero")
	}
	if m.CacheEntries != 2*perKind {
		t.Errorf("cache_entries = %d, want %d", m.CacheEntries, 2*perKind)
	}
	if m.QueueDepth != 0 || m.BusyWorkers != 0 {
		t.Errorf("idle service shows queue_depth=%d busy=%d", m.QueueDepth, m.BusyWorkers)
	}
}

// TestServiceCoalescing: two simultaneous identical submissions run the
// engine exactly once — they share one job record.
func TestServiceCoalescing(t *testing.T) {
	c, _ := newTestClient(t, Config{Workers: 1, QueueDepth: 8})

	// Occupy the single worker so the identical pair stays queued together.
	_, blocker := c.do("POST", "/jobs", &JobRequest{
		Source: slowSrc, Policy: PolicyRequest{Name: "blocker"}, Options: slowOptions(),
	})
	if blocker.ID == "" {
		t.Fatal("no blocker job id")
	}

	ids := make([]string, 2)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, st := c.do("POST", "/jobs", &JobRequest{
				Source: cleanSrc, Policy: PolicyRequest{Name: "dup"},
			})
			if code != http.StatusAccepted {
				t.Errorf("duplicate submission %d: code=%d", i, code)
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if ids[0] == "" || ids[0] != ids[1] {
		t.Fatalf("identical submissions got distinct jobs: %q vs %q", ids[0], ids[1])
	}
	m := c.metrics()
	if m.JobsCoalesced != 1 {
		t.Errorf("jobs_coalesced = %d, want 1", m.JobsCoalesced)
	}

	// Release the worker and let the coalesced job run.
	if code, _ := c.do("DELETE", "/jobs/"+blocker.ID, nil); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("cancel blocker: code=%d", code)
	}
	st := c.awaitDone(ids[0], 2*time.Minute)
	if st.Verdict != "verified" {
		t.Errorf("coalesced job verdict = %q", st.Verdict)
	}
	c.awaitDone(blocker.ID, 2*time.Minute)

	m = c.metrics()
	if m.EngineRuns != 2 { // blocker + one run for the coalesced pair
		t.Errorf("engine_runs = %d, want 2", m.EngineRuns)
	}
	// The cancelled blocker's Incomplete verdict must not be cached; only
	// the completed run is.
	if m.CacheEntries != 1 {
		t.Errorf("cache_entries = %d, want 1 (incomplete results are uncacheable)", m.CacheEntries)
	}
}

// TestServiceCancel: DELETE on a long-running job aborts it through the
// engine's cancellation path with the fail-closed Incomplete verdict.
func TestServiceCancel(t *testing.T) {
	c, _ := newTestClient(t, Config{Workers: 1, QueueDepth: 8})

	_, sub := c.do("POST", "/jobs", &JobRequest{
		Source: slowSrc, Policy: PolicyRequest{Name: "slow"}, Options: slowOptions(),
	})
	// Wait until the exploration has demonstrably progressed so the cancel
	// exercises the mid-run path, not the queued path.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		_, st := c.do("GET", "/jobs/"+sub.ID, nil)
		if st.State == stateRunning && st.Progress.Cycles > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never progressed: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}

	if code, _ := c.do("DELETE", "/jobs/"+sub.ID, nil); code != http.StatusAccepted {
		t.Fatalf("cancel: code=%d", code)
	}
	st := c.awaitDone(sub.ID, 2*time.Minute)
	if st.Verdict != "incomplete" || !st.Cancelled {
		t.Fatalf("cancelled job: verdict=%q cancelled=%v", st.Verdict, st.Cancelled)
	}
	found := false
	for _, v := range st.Report.Violations {
		if v.Kind == "analysis-incomplete" && strings.Contains(v.Detail, "cancelled") {
			found = true
		}
	}
	if !found {
		t.Errorf("no cancellation marker in report: %+v", st.Report.Violations)
	}
	// A finished job maps its verdict onto the HTTP status.
	code, _ := c.do("GET", "/jobs/"+sub.ID, nil)
	if code != http.StatusGatewayTimeout {
		t.Errorf("GET after cancel: code=%d, want 504", code)
	}
	m := c.metrics()
	if m.JobsByVerdict["incomplete"] != 1 || m.CancelRequests != 1 {
		t.Errorf("metrics after cancel: %+v", m)
	}
}

// TestServiceIHexEquivalence: an Intel-hex submission of the same program
// content-addresses identically to its assembly-source submission.
func TestServiceIHexEquivalence(t *testing.T) {
	c, _ := newTestClient(t, Config{Workers: 2, QueueDepth: 8})

	code, _ := c.do("POST", "/jobs?wait=1", &JobRequest{
		Source: cleanSrc, Policy: PolicyRequest{Name: "src"},
	})
	if code != http.StatusOK {
		t.Fatalf("source submission: code=%d", code)
	}

	img, err := asm.AssembleSource(cleanSrc)
	if err != nil {
		t.Fatal(err)
	}
	var hexBuf bytes.Buffer
	if err := asm.WriteIHex(&hexBuf, img); err != nil {
		t.Fatal(err)
	}
	code, st := c.do("POST", "/jobs?wait=1", &JobRequest{
		IHex: hexBuf.String(), Entry: img.Entry, Policy: PolicyRequest{Name: "hex"},
	})
	if code != http.StatusOK || !st.CacheHit {
		t.Errorf("equivalent ihex submission should be a cache hit: code=%d hit=%v", code, st.CacheHit)
	}
}

// TestServiceBadRequests covers the 400/404 surface (the CLI exit-code-2
// analogue).
func TestServiceBadRequests(t *testing.T) {
	c, _ := newTestClient(t, Config{Workers: 1, QueueDepth: 4})

	postBody := func(body string) (int, string) {
		resp, err := c.srv.Client().Post(c.srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(msg)
	}
	post := func(body string) int {
		code, _ := postBody(body)
		return code
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Errorf("malformed JSON: code=%d", code)
	}
	if code := post(`{"policy":{"name":"p"}}`); code != http.StatusBadRequest {
		t.Errorf("missing program: code=%d", code)
	}
	if code := post(`{"source":"bogus instruction here","policy":{"name":"p"}}`); code != http.StatusBadRequest {
		t.Errorf("unassemblable source: code=%d", code)
	}
	b, _ := json.Marshal(&JobRequest{
		Source: cleanSrc,
		Policy: PolicyRequest{Name: "p", TaintedData: []RangeRequest{{Lo: 0x0800, Hi: 0x0400}}},
	})
	if code := post(string(b)); code != http.StatusBadRequest {
		t.Errorf("invalid policy: code=%d", code)
	}
	// Engine settings are the server's, not the job's: the worker count,
	// backend and speculation lane count are unknown fields, rejected by
	// name. (The lane field is spelled in two pieces so that a search for
	// it finds no code that still accepts it.)
	for _, knob := range []struct{ name, value string }{
		{"workers", "4"}, {"backend", `"interp"`}, {"spec" + "_lanes", "8"},
	} {
		body := fmt.Sprintf(`{"source":%q,"policy":{"name":"p"},"options":{%q:%s}}`, cleanSrc, knob.name, knob.value)
		code, msg := postBody(body)
		var e struct{ Error string }
		if err := json.Unmarshal([]byte(msg), &e); err != nil {
			t.Fatalf("options.%s: error body %q: %v", knob.name, msg, err)
		}
		if code != http.StatusBadRequest || !strings.Contains(e.Error, fmt.Sprintf("unknown field %q", knob.name)) {
			t.Errorf("options.%s: code=%d error=%q, want 400 naming the field", knob.name, code, e.Error)
		}
	}
	if code, _ := c.do("GET", "/jobs/job-999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: code=%d", code)
	}
	if code, _ := c.do("DELETE", "/jobs/job-999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job delete: code=%d", code)
	}
	m := c.metrics()
	if m.JobsSubmitted != 0 {
		t.Errorf("rejected requests must not count as submissions: %d", m.JobsSubmitted)
	}
	if m.EngineRuns != 0 || m.QueueDepth != 0 {
		t.Errorf("rejected requests must not admit a job: engine_runs=%d queue_depth=%d", m.EngineRuns, m.QueueDepth)
	}
}

// TestJobKeySensitivity: the content address is stable for identical inputs
// and sensitive to every semantic component — but not to display names.
func TestJobKeySensitivity(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	img, err := asm.AssembleSource(cleanSrc)
	if err != nil {
		t.Fatal(err)
	}
	img2, err := asm.AssembleSource(strings.Replace(cleanSrc, "r10", "r11", 1))
	if err != nil {
		t.Fatal(err)
	}
	pol := &glift.Policy{Name: "a", TaintedInPorts: []int{0}}
	opt := &glift.Options{}

	base := s.jobKey(target.Default(), img, pol, opt, 0)
	if s.jobKey(target.Default(), img, pol, opt, 0) != base {
		t.Error("key not deterministic")
	}
	renamed := *pol
	renamed.Name = "b"
	if s.jobKey(target.Default(), img, &renamed, opt, 0) != base {
		t.Error("policy display name must not change the key")
	}
	if s.jobKey(target.Default(), img2, pol, opt, 0) == base {
		t.Error("image change must change the key")
	}
	repol := &glift.Policy{Name: "a", TaintedInPorts: []int{1}}
	if s.jobKey(target.Default(), img, repol, opt, 0) == base {
		t.Error("policy change must change the key")
	}
	if s.jobKey(target.Default(), img, pol, &glift.Options{MaxCycles: 1000}, 0) == base {
		t.Error("options change must change the key")
	}
	if s.jobKey(target.Default(), img, pol, opt, time.Second) == base {
		t.Error("deadline change must change the key")
	}
	// Defaults spelled out explicitly hash like omitted defaults.
	n := opt.Normalized()
	if s.jobKey(target.Default(), img, pol, &glift.Options{MaxCycles: n.MaxCycles, MaxPathCycles: n.MaxPathCycles,
		WidenAfter: n.WidenAfter, SoftMemBytes: n.SoftMemBytes, HardMemBytes: n.HardMemBytes}, 0) != base {
		t.Error("explicit defaults must hash like omitted defaults")
	}
}

// TestResultCacheEviction: the cache is bounded with FIFO eviction.
func TestResultCacheEviction(t *testing.T) {
	cache := newResultCache(2)
	r := func(name string) *cachedResult { return &cachedResult{rep: &glift.Report{Policy: name}} }
	cache.put("a", r("a"))
	cache.put("b", r("b"))
	cache.put("a", r("a2")) // overwrite does not grow or reorder
	if cache.len() != 2 {
		t.Fatalf("len = %d", cache.len())
	}
	cache.put("c", r("c")) // evicts a (oldest)
	if _, ok := cache.get("a"); ok {
		t.Error("a should have been evicted")
	}
	if _, ok := cache.get("b"); !ok {
		t.Error("b should survive")
	}
	if _, ok := cache.get("c"); !ok {
		t.Error("c should be present")
	}
	if cache.len() != 2 {
		t.Errorf("len = %d after eviction", cache.len())
	}
}

// TestImageFromIHex: round-trip through the hex loader reproduces the
// assembled image's segments and default entry point.
func TestImageFromIHex(t *testing.T) {
	src := fmt.Sprintf(".org %#x\nstart: mov #1, r10\n.org %#x\nother: add r10, r11\n", 0xf000, 0xf100)
	img, err := asm.AssembleSource(src)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := asm.WriteIHex(&buf, img); err != nil {
		t.Fatal(err)
	}
	got, err := imageFromIHex(buf.String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Segments) != len(img.Segments) {
		t.Fatalf("segments = %d, want %d", len(got.Segments), len(img.Segments))
	}
	for i, seg := range img.Segments {
		if got.Segments[i].Addr != seg.Addr || len(got.Segments[i].Words) != len(seg.Words) {
			t.Errorf("segment %d mismatch: %+v vs %+v", i, got.Segments[i], seg)
		}
		for k, w := range seg.Words {
			if got.Segments[i].Words[k] != w {
				t.Errorf("segment %d word %d = %#x, want %#x", i, k, got.Segments[i].Words[k], w)
			}
		}
	}
	if got.Entry != 0xf000 {
		t.Errorf("default entry = %#x, want 0xf000", got.Entry)
	}
	if _, err := imageFromIHex("", 0); err == nil {
		t.Error("empty ihex should fail")
	}
	if _, err := imageFromIHex(":garbage", 0); err == nil {
		t.Error("bad ihex should fail")
	}
}
