package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/glift"
	"repro/internal/mcu"
)

// The traced run times the exploration engine from outside, through its
// two public hooks: Options.Trace fires once per evaluated cycle (after
// the policy checks, before fork or commit) and Options.Tracer once per
// structured event. Consecutive hook points cut the run into intervals
// that never overlap, and each interval is labelled by the hook points
// that bound it:
//
//	ends at a fork event                       fork   (re-evaluate, commit, enqueue one successor)
//	ends at a prune event                      prune  (commit, then the table check that discards the path)
//	ends at a path start, or begins at one     resume (pop + Restore, then the first evaluation after it)
//	between per-cycle hooks (or merge,
//	violation, escalation events)              cycle  (commit, table update, evaluate, check)
//
// Anything else — engine construction, path-end bookkeeping, budget
// handling — is not a span; glift.other_share is that remainder.

type spanKind uint8

const (
	spanCycle spanKind = iota
	spanResume
	spanFork
	spanPrune
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"cycle", "resume", "fork", "prune"}

// hookPoint is what fired at an interval boundary.
type hookPoint uint8

const (
	hookStart hookPoint = iota
	hookCycle
	hookPathStart
	hookPathEnd
	hookFork
	hookPrune
	hookInPath // merge, violation, escalation: the path goes on
	hookOther  // budget crossings
)

func hookOf(k glift.TraceEventKind) hookPoint {
	switch k {
	case glift.EvPathStart:
		return hookPathStart
	case glift.EvPathEnd:
		return hookPathEnd
	case glift.EvFork:
		return hookFork
	case glift.EvPrune:
		return hookPrune
	case glift.EvMerge, glift.EvViolation, glift.EvEscalation:
		return hookInPath
	default:
		return hookOther
	}
}

// classify labels the interval between two hook points; false means the
// interval belongs to no span.
func classify(prev, cur hookPoint) (spanKind, bool) {
	switch {
	case cur == hookFork:
		return spanFork, true
	case cur == hookPrune:
		return spanPrune, true
	case cur == hookPathStart:
		return spanResume, prev != hookStart // engine construction is not a resume
	case prev == hookPathStart:
		return spanResume, true
	case (cur == hookCycle || cur == hookInPath) && (prev == hookCycle || prev == hookInPath):
		return spanCycle, true
	}
	return 0, false
}

type span struct {
	kind       spanKind
	start, dur time.Duration
}

// analysisTrace records one traced analysis: its spans, and machine states
// sampled for the layer timings together with the engine's own system they
// were taken from. Sampling time is paused out of the clock, so no span
// contains it.
type analysisTrace struct {
	name   string
	origin time.Time
	paused time.Duration
	last   time.Duration
	prev   hookPoint
	spans  []span
	wall   time.Duration

	stride   uint64
	cycles   uint64
	sys      *mcu.System
	captured []*mcu.Snapshot
}

func (t *analysisTrace) now() time.Duration { return time.Since(t.origin) - t.paused }

func (t *analysisTrace) mark(h hookPoint) {
	now := t.now()
	if k, ok := classify(t.prev, h); ok {
		// A path resume is two intervals (pop and restore, then the first
		// evaluation); they form one span.
		if n := len(t.spans); k == spanResume && t.prev == hookPathStart && n > 0 && t.spans[n-1].kind == spanResume {
			t.spans[n-1].dur = now - t.spans[n-1].start
		} else {
			t.spans = append(t.spans, span{kind: k, start: t.last, dur: now - t.last})
		}
	}
	t.last, t.prev = now, h
}

// traceAnalysis runs one analysis with both hooks installed, sampling a
// machine snapshot every stride (at least 1) cycles. The per-cycle hook
// makes the run sequential, so the engine has one system, which the trace
// keeps: once the analysis returns the layer timings replay the samples on
// it.
func traceAnalysis(run func(opt *glift.Options) (*glift.Report, error), name string, stride uint64) (*analysisTrace, *glift.Report, error) {
	t := &analysisTrace{name: name, stride: stride}
	opt := &glift.Options{
		Trace: func(e *glift.Engine, _ *mcu.CycleInfo) {
			t.mark(hookCycle)
			t.cycles++
			t.sys = e.Sys
			if t.cycles%t.stride == 0 {
				c0 := time.Now()
				t.captured = append(t.captured, e.Sys.Snapshot())
				t.paused += time.Since(c0)
			}
		},
		Tracer: func(ev glift.TraceEvent) { t.mark(hookOf(ev.Kind)) },
	}
	t.origin = time.Now()
	rep, err := run(opt)
	t.wall = t.now()
	return t, rep, err
}

// spanStats aggregates spans over traced analyses.
type spanStats struct {
	durs  [numSpanKinds][]time.Duration
	total [numSpanKinds]time.Duration
	wall  time.Duration
}

func (s *spanStats) add(t *analysisTrace) {
	for _, sp := range t.spans {
		s.durs[sp.kind] = append(s.durs[sp.kind], sp.dur)
		s.total[sp.kind] += sp.dur
	}
	s.wall += t.wall
}

// record sets the glift span metrics: per-kind p50 and self-time shares,
// with other_share the remainder of the traced wall.
func (s *spanStats) record(m *metrics) {
	rest := 1.0
	for k := spanKind(0); k < numSpanKinds; k++ {
		m.percentile("glift."+spanNames[k]+"_us_p50", "us", durs(s.durs[k], us), 0.5)
		share := 0.0
		if s.wall > 0 {
			share = float64(s.total[k]) / float64(s.wall)
		}
		rest -= share
		m.set("glift."+spanNames[k]+"_share", "ratio", share, -1)
	}
	m.set("glift.other_share", "ratio", rest, -1)
}

// chromeEvent is one Chrome trace_event record (the format cmd/traceview
// validates and chrome://tracing / Perfetto display).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace accumulates a run's spans for writing at the end.
type chromeTrace struct {
	events []chromeEvent
	cursor time.Duration // analyses are laid end to end on one timeline
}

func usf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// addAnalysis lays out one traced analysis: the analysis itself on thread
// 1, its spans on thread 2 with runs of same-kind spans folded into one
// event carrying their count.
func (c *chromeTrace) addAnalysis(t *analysisTrace) {
	base := c.cursor
	c.events = append(c.events, chromeEvent{Name: t.name, Ph: "X", TS: usf(base), Dur: usf(t.wall), PID: 1, TID: 1})
	for i := 0; i < len(t.spans); {
		j, end := i, t.spans[i].start+t.spans[i].dur
		for j+1 < len(t.spans) && t.spans[j+1].kind == t.spans[i].kind {
			j++
			end = t.spans[j].start + t.spans[j].dur
		}
		c.events = append(c.events, chromeEvent{
			Name: spanNames[t.spans[i].kind], Ph: "X",
			TS: usf(base + t.spans[i].start), Dur: usf(end - t.spans[i].start),
			PID: 1, TID: 2, Args: map[string]any{"n": j - i + 1, "analysis": t.name},
		})
		i = j + 1
	}
	c.cursor += t.wall
}

// addJobs lays out service jobs on process 2, one thread per job: the job
// from its scheduled send to its checked answer, and inside it the server
// stages (queue wait, engine run, persist or cache hit) placed in order
// from the send. The analyses that follow start after the last job.
func (c *chromeTrace) addJobs(jobs []*job) {
	if len(jobs) == 0 {
		return
	}
	origin := jobs[0].sched
	for _, j := range jobs {
		if j.sched.Before(origin) {
			origin = j.sched
		}
	}
	var end time.Duration
	for i, j := range jobs {
		if j.err != nil {
			continue
		}
		tid := i + 1
		at := j.sched.Sub(origin)
		c.events = append(c.events, chromeEvent{Name: j.kind.String(), Ph: "X", TS: usf(at), Dur: usf(j.done.Sub(j.sched)),
			PID: 2, TID: tid, Args: map[string]any{"job": j.id, "program": j.spec.name, "cache_hit": j.cacheHit}})
		t := j.sent.Sub(origin)
		for _, st := range []struct {
			name string
			ns   int64
		}{{"queue-wait", j.stages.QueueWaitNS}, {"engine-run", j.stages.EngineRunNS}, {"persist", j.stages.PersistNS}, {"cache-hit", j.stages.CacheHitNS}} {
			if st.ns <= 0 {
				continue
			}
			c.events = append(c.events, chromeEvent{Name: st.name, Ph: "X", TS: usf(t), Dur: float64(st.ns) / 1e3, PID: 2, TID: tid})
			t += time.Duration(st.ns)
		}
		end = max(end, j.done.Sub(origin))
	}
	c.cursor = end
}

// write stores the trace as {"traceEvents": [...]}.
func (c *chromeTrace) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": c.events})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
