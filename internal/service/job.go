package service

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/glift"
	"repro/internal/mcu"
	"repro/internal/repair"
	"repro/internal/target"
)

// Job states.
const (
	stateQueued  = "queued"
	stateRunning = "running"
	stateDone    = "done"
)

// Job modes: plain analysis (the zero value) or the analyze→mask→re-verify
// repair loop shared with cmd/secure430 through internal/repair.
const (
	modeAnalyze = ""
	modeRepair  = "repair"
)

// job is one tracked analysis execution. A single job may serve several
// submitters: concurrent identical submissions coalesce onto the job that
// is already queued or running.
type job struct {
	id  string
	key string
	// tgt is the processor target the job analyzes on (nil for repair
	// jobs, which run on the server's default design).
	tgt      *target.Target
	img      *asm.Image
	pol      *glift.Policy
	opt      glift.Options
	deadline time.Duration
	ctx      context.Context
	cancel   context.CancelFunc
	done     chan struct{}
	// tenant is the submitting X-Tenant value, carried for structured logs.
	tenant string
	// enqueued is when the job entered the worker queue (the start of its
	// queue-wait span).
	enqueued time.Time
	// streamTrace > 0 publishes every streamTrace-th engine exploration
	// event to the job's event stream (opt-in sampling; 0 disables). It
	// never affects results, so it is not part of the job key.
	streamTrace int
	// mode selects the execution path (modeAnalyze or modeRepair); repair
	// jobs carry their spec in rspec instead of img/pol.
	mode  string
	rspec *repair.Spec

	mu        sync.Mutex
	state     string
	progress  glift.Progress
	report    *glift.Report
	rres      *repair.ResultJSON // repair jobs: the full repair payload
	cacheHit  bool
	coalesced int64 // extra submissions served by this execution
	cancelled bool
	created   time.Time
	finished  time.Time
}

func (j *job) setState(st string) {
	j.mu.Lock()
	j.state = st
	j.mu.Unlock()
}

// setProgress is installed as the engine's Options.Progress hook; it runs
// on the worker goroutine.
func (j *job) setProgress(p glift.Progress) {
	j.mu.Lock()
	j.progress = p
	j.mu.Unlock()
}

// setRepair attaches the completed repair payload; it must happen before
// finish so waiters woken by the done channel see it.
func (j *job) setRepair(rj *repair.ResultJSON) {
	j.mu.Lock()
	j.rres = rj
	j.mu.Unlock()
}

// finish publishes the final report and wakes every waiter.
func (j *job) finish(rep *glift.Report) {
	j.mu.Lock()
	j.state = stateDone
	j.report = rep
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}

// RangeRequest is one address range in a job request ([lo, hi)).
type RangeRequest struct {
	Lo uint16 `json:"lo"`
	Hi uint16 `json:"hi"`
}

// PolicyRequest is the wire form of an information flow policy; field names
// match the canonical policy encoding. Ports are 0-based indices (P1 = 0).
type PolicyRequest struct {
	Name                 string         `json:"name"`
	TaintedInPorts       []int          `json:"tainted_in_ports"`
	TaintedOutPorts      []int          `json:"tainted_out_ports"`
	TaintedCode          []RangeRequest `json:"tainted_code"`
	TaintedData          []RangeRequest `json:"tainted_data"`
	InitiallyTaintedData []RangeRequest `json:"initially_tainted_data"`
	TaintCodeWords       bool           `json:"taint_code_words"`
}

// OptionsRequest selects engine options for one job; zero values take the
// engine defaults. DeadlineMS bounds the job's wall-clock time (expiry
// yields the Incomplete verdict through the engine's cancellation path).
type OptionsRequest struct {
	MaxCycles     uint64 `json:"max_cycles,omitempty"`
	MaxPathCycles uint64 `json:"max_path_cycles,omitempty"`
	WidenAfter    int    `json:"widen_after,omitempty"`
	SoftMemBytes  int64  `json:"soft_mem_bytes,omitempty"`
	HardMemBytes  int64  `json:"hard_mem_bytes,omitempty"`
	DeadlineMS    int64  `json:"deadline_ms,omitempty"`
	// StreamTrace opts this job into engine trace streaming: every N-th
	// exploration event (1: all of them) is published as a `trace` event
	// on GET /jobs/{id}/events. Tracing observes the run without changing
	// the report, so it does not participate in the job's cache key — a traced submission may coalesce onto an untraced
	// execution, in which case no trace events flow (0: off).
	StreamTrace int `json:"stream_trace,omitempty"`
}

// RepairRequest tunes a repair-mode job, mirroring the secure430 flags.
type RepairRequest struct {
	// Rounds bounds the analyze/mask/re-verify iteration
	// (0: repair.DefaultMaxRounds, the secure430 -rounds default).
	Rounds int `json:"rounds,omitempty"`
	// Partition is the mask partition as "base:size" (size a power of two,
	// base size-aligned; default "0x0400:0x0400" — the -partition default).
	Partition string `json:"partition,omitempty"`
	// TaintedCode lists "lo:hi" tainted-code ranges whose endpoints are
	// symbols of the program (or addresses), re-resolved against each
	// round's mask-shifted image — the -tainted-code flag. Repair mode
	// requires symbolic ranges here instead of numeric policy.tainted_code
	// ranges, which cannot track the code movement mask insertion causes.
	TaintedCode []string `json:"tainted_code,omitempty"`
	// TaskCycles is the unprotected task period anchoring the
	// targeted-vs-always-on overhead comparison
	// (0: repair.DefaultTaskCycles).
	TaskCycles uint64 `json:"task_cycles,omitempty"`
}

// JobRequest is one analysis submission: a program (exactly one of Source
// assembly text or an Intel-hex image), a policy and options. Mode "repair"
// runs the analyze→mask→re-verify loop instead of a single analysis.
type JobRequest struct {
	// Target selects the processor target by registered name (empty:
	// msp430, preserving the pre-target schema). The target changes the
	// analyzed system, so it is part of the content-addressed job key: identical
	// programs submitted against different targets never coalesce and
	// never share cache entries.
	Target string `json:"target,omitempty"`
	// Source is assembly text for the selected target's assembler.
	Source string `json:"source,omitempty"`
	// IHex is an Intel-hex program image (the asm430 -ihex output shape).
	IHex string `json:"ihex,omitempty"`
	// Entry is the reset target for IHex images (default: lowest address).
	// Source images resolve their entry point through the assembler.
	Entry   uint16         `json:"entry,omitempty"`
	Policy  PolicyRequest  `json:"policy"`
	Options OptionsRequest `json:"options"`
	// Mode selects the execution path: "" or "analyze" for one analysis,
	// "repair" for the iterative repair loop (requires Source).
	Mode string `json:"mode,omitempty"`
	// Repair tunes repair mode (ignored otherwise).
	Repair *RepairRequest `json:"repair,omitempty"`
}

func toRanges(rs []RangeRequest) []glift.AddrRange {
	out := make([]glift.AddrRange, 0, len(rs))
	for _, r := range rs {
		out = append(out, glift.AddrRange{Lo: r.Lo, Hi: r.Hi})
	}
	return out
}

// compile turns a request into engine inputs, reporting user errors (bad
// target, bad source, bad policy) that the HTTP layer maps to 400.
func compile(req *JobRequest) (*target.Target, *asm.Image, *glift.Policy, *glift.Options, time.Duration, error) {
	tgt, err := target.Parse(req.Target)
	if err != nil {
		return nil, nil, nil, nil, 0, err
	}
	var img *asm.Image
	switch {
	case req.Source != "" && req.IHex != "":
		return nil, nil, nil, nil, 0, fmt.Errorf("give either source or ihex, not both")
	case req.Source != "":
		if img, err = tgt.Assemble(req.Source); err != nil {
			return nil, nil, nil, nil, 0, err
		}
	case req.IHex != "":
		if img, err = imageFromIHex(req.IHex, req.Entry); err != nil {
			return nil, nil, nil, nil, 0, err
		}
	default:
		return nil, nil, nil, nil, 0, fmt.Errorf("missing program: give source or ihex")
	}
	if err := validateImage(img, tgt.Design()); err != nil {
		return nil, nil, nil, nil, 0, err
	}

	pol, err := compilePolicy(&req.Policy)
	if err != nil {
		return nil, nil, nil, nil, 0, err
	}
	opt, deadline, err := compileOptions(&req.Options)
	if err != nil {
		return nil, nil, nil, nil, 0, err
	}
	return tgt, img, pol, opt, deadline, nil
}

// validateImage rejects images that do not fit the target's ROM: each
// target has its own memory geometry, and an out-of-range word would
// otherwise fault deep inside system construction instead of as a 400.
func validateImage(img *asm.Image, d *mcu.Design) error {
	for _, seg := range img.Segments {
		end := uint32(seg.Addr) + 2*uint32(len(seg.Words))
		if seg.Addr < d.Map.ROMStart || end > d.Map.ROMEnd {
			return fmt.Errorf("image segment [%#04x,%#06x) outside target ROM [%#04x,%#06x)",
				seg.Addr, end, d.Map.ROMStart, d.Map.ROMEnd)
		}
	}
	if img.Entry < d.Map.ROMStart || uint32(img.Entry) >= d.Map.ROMEnd {
		return fmt.Errorf("entry point %#04x outside target ROM [%#04x,%#06x)",
			img.Entry, d.Map.ROMStart, d.Map.ROMEnd)
	}
	return nil
}

// compilePolicy turns the wire policy into a validated engine policy.
func compilePolicy(pr *PolicyRequest) (*glift.Policy, error) {
	name := pr.Name
	if name == "" {
		name = "service"
	}
	pol := &glift.Policy{
		Name:                 name,
		TaintedInPorts:       pr.TaintedInPorts,
		TaintedOutPorts:      pr.TaintedOutPorts,
		TaintedCode:          toRanges(pr.TaintedCode),
		TaintedData:          toRanges(pr.TaintedData),
		InitiallyTaintedData: toRanges(pr.InitiallyTaintedData),
		TaintCodeWords:       pr.TaintCodeWords,
	}
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	return pol, nil
}

// compileOptions turns the wire options into validated engine options and
// the job deadline. Every job explores sequentially on the compiled
// backend: jobs already run in parallel across the server's worker pool.
func compileOptions(or *OptionsRequest) (*glift.Options, time.Duration, error) {
	opt := &glift.Options{
		MaxCycles:     or.MaxCycles,
		MaxPathCycles: or.MaxPathCycles,
		WidenAfter:    or.WidenAfter,
		SoftMemBytes:  or.SoftMemBytes,
		HardMemBytes:  or.HardMemBytes,
		Workers:       1,
	}
	if or.DeadlineMS < 0 {
		return nil, 0, fmt.Errorf("negative deadline_ms")
	}
	if or.StreamTrace < 0 {
		return nil, 0, fmt.Errorf("negative stream_trace")
	}
	return opt, time.Duration(or.DeadlineMS) * time.Millisecond, nil
}

// imageFromIHex reconstructs an assembled image from Intel-hex text: the
// words are grouped into contiguous segments and the entry point defaults
// to the lowest loaded address.
func imageFromIHex(text string, entry uint16) (*asm.Image, error) {
	words := map[uint16]uint16{}
	err := asm.ReadIHex(strings.NewReader(text), func(addr, w uint16) { words[addr] = w })
	if err != nil {
		return nil, err
	}
	if len(words) == 0 {
		return nil, fmt.Errorf("empty ihex image")
	}
	addrs := make([]int, 0, len(words))
	for a := range words {
		addrs = append(addrs, int(a))
	}
	sort.Ints(addrs)
	img := &asm.Image{Symbols: map[string]int64{}, AddrToStmt: map[uint16]int{}, StmtToAddr: map[int]uint16{}}
	var seg *asm.Segment
	for _, ai := range addrs {
		a := uint16(ai)
		if seg == nil || int(seg.Addr)+2*len(seg.Words) != int(a) {
			img.Segments = append(img.Segments, asm.Segment{Addr: a})
			seg = &img.Segments[len(img.Segments)-1]
		}
		seg.Words = append(seg.Words, words[a])
	}
	img.Entry = uint16(addrs[0])
	if entry != 0 {
		img.Entry = entry
	}
	return img, nil
}
