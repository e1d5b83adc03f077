package service

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"
)

// Admission control: gliftd admits work in three gates, each of which fails
// fast with machine-actionable backpressure instead of queuing doomed work.
//
//  1. Per-tenant token buckets keyed by the X-Tenant request header bound
//     each tenant's sustained submission rate; an exhausted bucket rejects
//     429 with Retry-After set to the time until the next token.
//  2. Deadline-aware shedding: a job whose deadline cannot be met given the
//     current queue depth and the observed job-duration EWMA is rejected
//     503 with Retry-After — queueing it would only burn a worker on a
//     result nobody can use (the deadline would expire in the queue and the
//     run would end Incomplete).
//  3. The bounded queue itself: a full queue rejects 503 with Retry-After,
//     as before.

// defaultTenant is the bucket for requests without an X-Tenant header.
const defaultTenant = "default"

// maxTenantBuckets bounds quota-tracking memory: past it, full (idle)
// buckets are swept before admitting a new tenant.
const maxTenantBuckets = 4096

// tenantOf extracts the quota key for a request.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return defaultTenant
}

// bucket is one tenant's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// tenantQuotas is the per-tenant token-bucket admission gate.
type tenantQuotas struct {
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64 // bucket capacity
	buckets map[string]*bucket
	now     func() time.Time // test hook
}

func newTenantQuotas(rate float64, burst int) *tenantQuotas {
	if burst <= 0 {
		burst = int(math.Max(1, math.Ceil(rate)))
	}
	return &tenantQuotas{
		rate:    rate,
		burst:   float64(burst),
		buckets: make(map[string]*bucket),
		now:     time.Now,
	}
}

// admit takes one token from the tenant's bucket. On refusal it returns the
// duration until a token will be available — the Retry-After the client
// should honor.
func (q *tenantQuotas) admit(tenant string) (bool, time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	b := q.buckets[tenant]
	if b == nil {
		if len(q.buckets) >= maxTenantBuckets {
			q.sweepLocked()
		}
		b = &bucket{tokens: q.burst, last: now}
		q.buckets[tenant] = b
	}
	b.tokens = math.Min(q.burst, b.tokens+now.Sub(b.last).Seconds()*q.rate)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / q.rate * float64(time.Second))
}

// sweepLocked drops buckets that have refilled completely — tenants idle
// long enough that forgetting them loses nothing (a fresh bucket starts
// full).
func (q *tenantQuotas) sweepLocked() {
	now := q.now()
	for t, b := range q.buckets {
		if math.Min(q.burst, b.tokens+now.Sub(b.last).Seconds()*q.rate) >= q.burst {
			delete(q.buckets, t)
		}
	}
}

// estimatedQueueWaitLocked predicts how long a newly enqueued job would
// wait for a worker: the jobs ahead of it, paced by the completed-job
// duration EWMA, spread across the pool. Zero while a worker is free or
// before the first completion seeds the EWMA — admission stays open until
// the service has evidence it is saturated. Caller holds s.mu.
func (s *Server) estimatedQueueWaitLocked() time.Duration {
	if s.load.avgRunNanos <= 0 || s.load.busyWorkers < s.cfg.Workers {
		return 0
	}
	return time.Duration(float64(s.load.queueDepth+1) * s.load.avgRunNanos / float64(s.cfg.Workers))
}

// observeRunLocked folds one completed job's wall time into the duration
// EWMA that prices queue admission. Caller holds s.mu.
func (s *Server) observeRunLocked(dur time.Duration) {
	const alpha = 0.2
	if s.load.avgRunNanos == 0 {
		s.load.avgRunNanos = float64(dur)
		return
	}
	s.load.avgRunNanos += alpha * (float64(dur) - s.load.avgRunNanos)
}

// setRetryAfter stamps the standard backpressure header, rounding up to a
// whole second (the header's unit) with a floor of 1.
func setRetryAfter(w http.ResponseWriter, wait time.Duration) {
	secs := int64(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
}
