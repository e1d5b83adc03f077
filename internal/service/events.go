package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/glift"
	"repro/internal/obs"
	"repro/internal/repair"
)

// Live job telemetry: every job owns a broker topic (keyed by job ID) that
// receives its lifecycle transitions, progress snapshots, optional sampled
// engine trace events and one terminal verdict event. GET /jobs/{id}/events
// serves the topic as a Server-Sent Events stream with Last-Event-ID resume
// (each event's SSE id is its topic sequence number), comment heartbeats,
// and lossy-with-gap-marker semantics under backpressure: a reader that
// falls behind the per-job ring gets a `gap` event counting what it missed,
// never silently reordered or truncated data. The stream always ends with
// the `verdict` event — including on drain, where cancelled jobs complete
// Incomplete through the normal path — so a consumer can treat stream end
// without a verdict as a reconnect cue.

// Stage names for the per-stage latency spans (the `stage` label on
// gliftd_stage_duration_seconds and the *_ns fields of the verdict event).
const (
	StageQueueWait = "queue-wait"
	StageEngineRun = "engine-run"
	StagePersist   = "persist"
	StageCacheHit  = "cache-hit"
)

// Event types on GET /jobs/{id}/events.
const (
	// EventState: a lifecycle transition (queued, running).
	EventState = "state"
	// EventProgress: a ProgressJSON snapshot from the running engine.
	EventProgress = "progress"
	// EventTrace: one sampled engine exploration event (opt-in via
	// options.stream_trace).
	EventTrace = "trace"
	// EventRound: a repair-job round boundary — the per-round masked-store
	// and violation counts as the analyze→mask→re-verify loop iterates.
	EventRound = "round"
	// EventGap: events were evicted before this reader could see them
	// (carries the count); synthesized per subscriber, never stored.
	EventGap = "gap"
	// EventVerdict: the terminal event — verdict plus per-stage latencies.
	// Always the last event of a stream.
	EventVerdict = "verdict"
)

// StateEventJSON is the payload of a `state` event.
type StateEventJSON struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// TraceEventJSON is the payload of a `trace` event: one engine exploration
// event in wire form (see glift.TraceEventKind for the kinds).
type TraceEventJSON struct {
	Kind   string `json:"kind"`
	Cycle  uint64 `json:"cycle"`
	WallNS int64  `json:"wall_ns"`
	PC     uint16 `json:"pc"`
	Aux    int    `json:"aux,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// RoundEventJSON is the payload of a `round` event: one completed repair
// round, mirroring the per-round line secure430 prints. The round fields
// are the repair result's own RoundJSON, so the two cannot drift apart.
type RoundEventJSON struct {
	ID string `json:"id"`
	repair.RoundJSON
}

// GapEventJSON is the payload of a `gap` event.
type GapEventJSON struct {
	// Lost is how many events were evicted unseen before the next one.
	Lost uint64 `json:"lost"`
}

// StageTimesJSON carries one job's per-stage latencies, in nanoseconds.
// Engine-executed jobs report queue-wait/engine-run/persist; cache and
// store hits report cache-hit. Total is submission to verdict.
type StageTimesJSON struct {
	QueueWaitNS int64 `json:"queue_wait_ns,omitempty"`
	EngineRunNS int64 `json:"engine_run_ns,omitempty"`
	PersistNS   int64 `json:"persist_ns,omitempty"`
	CacheHitNS  int64 `json:"cache_hit_ns,omitempty"`
	TotalNS     int64 `json:"total_ns"`
}

// VerdictEventJSON is the payload of the terminal `verdict` event.
type VerdictEventJSON struct {
	ID       string         `json:"id"`
	Verdict  string         `json:"verdict"`
	CacheHit bool           `json:"cache_hit,omitempty"`
	Stages   StageTimesJSON `json:"stages"`
}

// publish serializes one event onto a job's topic. Publishing to a closed
// topic (a finished job) is a silent no-op by broker contract — nothing may
// follow the verdict.
func (s *Server) publish(jobID, typ string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	if s.broker.Publish(jobID, typ, data) != 0 {
		s.prom.streamEvents.With(typ).Inc()
	}
}

// finishJob publishes the final result to waiters and the stream in one
// place: result to the job record, verdict event to the topic, then the
// terminal topic close and the completion log line. Every completion path
// — engine run, cache hit, store hit — funnels through here so no stream
// can end without its verdict event.
func (s *Server) finishJob(j *job, c *cachedResult, stages StageTimesJSON) {
	j.finish(c)
	verdict := c.rep.Verdict().String()
	s.publish(j.id, EventVerdict, VerdictEventJSON{
		ID:       j.id,
		Verdict:  verdict,
		CacheHit: j.cacheHit,
		Stages:   stages,
	})
	s.broker.CloseTopic(j.id)
	s.log.Info("job completed",
		"job_id", j.id, "tenant", j.tenant, "mode", j.mode, "verdict", verdict,
		"cache_hit", j.cacheHit, "cycles", c.rep.Stats.Cycles, "stages", stages)
}

// progressJSON converts an engine progress snapshot to its wire form
// (shared by GET /jobs/{id} and the `progress` stream event).
func progressJSON(p glift.Progress) ProgressJSON {
	return ProgressJSON{
		Cycles:      p.Stats.Cycles,
		Paths:       p.Stats.Paths,
		TableStates: p.Stats.TableStates,
		Pending:     p.Pending,
		WallNanos:   p.Stats.WallNanos,
		Done:        p.Done,
	}
}

// traceSampler returns an Options.Tracer hook publishing every n-th engine
// exploration event to the job's stream. The engine delivers trace events
// from one goroutine, so the counter needs no synchronization; the broker
// publish is internally locked either way.
func (s *Server) traceSampler(j *job, n int) func(glift.TraceEvent) {
	var count int
	return func(ev glift.TraceEvent) {
		count++
		if (count-1)%n != 0 {
			return
		}
		s.publish(j.id, EventTrace, TraceEventJSON{
			Kind:   ev.Kind.String(),
			Cycle:  ev.Cycle,
			WallNS: ev.WallNS,
			PC:     ev.PC,
			Aux:    ev.Aux,
			Detail: ev.Detail,
		})
	}
}

// resumeCursor extracts the client's resume position: the SSE-standard
// Last-Event-ID header (set automatically by EventSource reconnects),
// falling back to an ?after= query parameter for curl-style consumers.
func resumeCursor(r *http.Request) (uint64, error) {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("after")
	}
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad resume cursor %q: %w", v, err)
	}
	return n, nil
}

// handleEvents serves GET /jobs/{id}/events: the job's event stream as SSE.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	_, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	after, err := resumeCursor(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	sub, err := s.broker.Subscribe(r.PathValue("id"), after)
	if err != nil {
		writeError(w, http.StatusNotFound, "no event stream for this job")
		return
	}
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	for {
		// Each wait is bounded by the heartbeat cadence: a quiet stream
		// emits an SSE comment so intermediaries and clients can tell a
		// slow job from a dead connection.
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.StreamHeartbeat)
		ev, lost, err := sub.Next(ctx)
		cancel()
		switch {
		case err == nil:
		case errors.Is(err, obs.ErrStreamClosed):
			return // clean end: the verdict event has been delivered
		case errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil:
			fmt.Fprint(w, ": hb\n\n")
			fl.Flush()
			continue
		default:
			return // client disconnected
		}
		if lost > 0 {
			// Gap markers carry no SSE id: a reconnect resumes from the
			// last real event, re-deriving the gap if it still exists.
			s.prom.streamGaps.Inc()
			data, _ := json.Marshal(GapEventJSON{Lost: lost})
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", EventGap, data)
		}
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, ev.Data)
		fl.Flush()
	}
}
