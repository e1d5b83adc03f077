package glift

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/logic"
	"repro/internal/mcu"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// SharedDesign returns the singleton msp430 gate-level processor netlist,
// shared with the target registry (internal/target) so both consumers
// memoize one build.
func SharedDesign() *mcu.Design { return mcu.Shared() }

// Options tunes an analysis run.
type Options struct {
	// MaxCycles bounds total simulated cycles (0: default 4M).
	MaxCycles uint64
	// Workers is the number of exploration workers (0: default GOMAXPROCS;
	// 1: strictly sequential, the pre-parallel behavior; larger values are
	// capped at GOMAXPROCS, so a caller cannot start goroutines no memory
	// budget accounts for). Additional workers
	// speculatively simulate queued path states on private mcu.System
	// instances while a single committer replays their recorded traces
	// through the conservative state table in exact sequential order, so a
	// run produces the same Report — byte-identical modulo wall-time fields
	// — for every worker count. Because results cannot depend on it,
	// Workers is deliberately excluded from Normalized() and from
	// content-addressed job keys. Runs with a per-cycle Trace hook are
	// forced sequential (the hook observes live simulation state).
	Workers int
	// Backend selects the gate-evaluation backend for every simulation
	// instance of the run, including the speculation pool's private
	// systems (zero value: sim.BackendCompiled). Backends are
	// observationally identical — the differential suite byte-compares
	// reports across them — so like Workers, Backend changes only wall
	// time and is excluded from Normalized() and content-addressed job
	// keys.
	Backend sim.BackendKind
	// MaxPathCycles bounds cycles on one path segment without a merge point
	// (0: default 200k) — a straight-line runaway guard.
	MaxPathCycles uint64
	// WidenAfter is the number of visits to one PC-changing site after
	// which states are widened (merged to a conservative superstate) rather
	// than tracked precisely. Below the threshold, concretely-bounded loops
	// unroll exactly, preserving loop-pointer precision; above it, widening
	// forces convergence of input-dependent or unbounded loops (0: 512).
	WidenAfter int
	// SoftMemBytes is the approximate memory budget for the conservative
	// state table plus the work queue. While the footprint exceeds it, each
	// new table entry halves the effective WidenAfter (down to 1), trading
	// loop-unrolling precision for convergence so the run can still finish
	// (0: default 512 MiB; negative: unlimited).
	SoftMemBytes int64
	// HardMemBytes is the fail-closed memory ceiling: crossing it aborts
	// the exploration with an AnalysisIncomplete verdict instead of letting
	// the process die on OOM (0: default 2 GiB; negative: unlimited).
	HardMemBytes int64
	// Trace receives per-cycle callbacks (e.g. taint trace recording).
	Trace func(e *Engine, ci *mcu.CycleInfo)
	// Tracer, when set, receives structured exploration events — path
	// starts/ends, forks, merges, prunes, widening escalations, violations
	// and budget crossings — each stamped with the cycle count and wall
	// time (the feed for obs.ExplorationTrace and its Chrome trace_event
	// output). Called from the exploration goroutine; nil costs one
	// pointer test per event site, never per cycle.
	Tracer func(TraceEvent)
	// Progress, when set, receives a statistics snapshot every
	// progressEvery committed cycles and once more (Done=true) when the
	// run finishes. It is called from the exploration goroutine; hooks
	// that publish to other goroutines must do their own synchronization.
	Progress func(Progress)
}

func (o *Options) withDefaults() Options {
	out := Options{}
	if o != nil {
		out = *o
	}
	if out.MaxCycles == 0 {
		out.MaxCycles = 4_000_000
	}
	if out.MaxPathCycles == 0 {
		out.MaxPathCycles = 200_000
	}
	if out.WidenAfter == 0 {
		out.WidenAfter = 512
	}
	if out.SoftMemBytes == 0 {
		out.SoftMemBytes = 512 << 20
	}
	if out.HardMemBytes == 0 {
		out.HardMemBytes = 2 << 30
	}
	return out
}

// Normalized returns the options with every default applied — the canonical
// form used for content-addressed job keys, so an explicitly spelled-out
// default and an omitted field hash identically. The callback fields are
// copied unchanged, Workers is zeroed and Backend is reset to the compiled
// default: neither the worker count nor the evaluation backend can change
// the report (the speculate-and-commit determinism guarantee and the
// backend differential guarantee), so options differing only in them
// normalize equal.
func (o *Options) Normalized() Options {
	out := o.withDefaults()
	out.Workers = 0
	out.Backend = sim.BackendCompiled
	return out
}

// forkKey identifies a conservative-state-table entry: a PC-changing
// commit site (PC value plus FSM state, since a mid-instruction cycle's PC
// can equal another instruction's fetch address) plus the concrete control
// decisions taken (Algorithm 1's table of previously observed states).
type forkKey struct {
	pc    uint16
	state uint8
	dir   uint8
}

type pathState struct {
	snap     *mcu.Snapshot
	curInstr uint16
	// id orders every enqueued state over the run; the speculation pool
	// addresses its per-item bookkeeping by it (sequential runs carry the
	// ids too — assignment is deterministic and costs one increment).
	id uint64
}

// tableEntry is one conservative-state-table slot: the reference state for
// pruning, and how many times the site has been visited.
type tableEntry struct {
	snap   *mcu.Snapshot
	visits int
}

// Engine performs input-independent gate-level taint tracking of one system
// binary under one policy.
type Engine struct {
	Sys *mcu.System
	Pol *Policy
	opt Options

	table map[forkKey]*tableEntry
	// tableMu guards table contents against the speculation workers'
	// advisory reads (tableCovers). The committer is the only writer, so
	// sequential runs pay one uncontended lock per table application.
	tableMu  sync.RWMutex
	work     []pathState
	curInstr uint16
	seen     map[Violation]bool
	report   *Report

	ramRange AddrRange

	// design and img rebuild per-worker mcu.System instances for the
	// speculation pool (circuits are mutable and cannot be shared).
	design *mcu.Design
	img    *asm.Image
	// pool is the speculation worker pool; nil for sequential runs.
	pool *specPool
	// pushSeq issues pathState ids in enqueue order.
	pushSeq uint64

	// ctx aborts the exploration between cycles; set by RunContext.
	ctx context.Context
	// runStart anchors wall-time stamping for progress snapshots and
	// exploration trace events; set by RunContext.
	runStart time.Time
	// sinceEmit counts cycles committed since the last Progress emission,
	// so snapshots can never be starved by commits that happen outside the
	// main path loop (e.g. fork concretization).
	sinceEmit uint64
	// widenAfter is the effective widening threshold; it starts at
	// opt.WidenAfter and is halved by soft-memory-budget escalations.
	widenAfter int
	// snapBytes is the approximate footprint of one machine snapshot, the
	// unit of the memory accounting.
	snapBytes int64
}

// SetTrace installs a per-cycle observer after construction.
func (e *Engine) SetTrace(f func(e *Engine, ci *mcu.CycleInfo)) { e.opt.Trace = f }

// NewEngine prepares a system for analysis: program loaded, policy taints
// applied (tainted code partitions, initially tainted data, tainted ports).
func NewEngine(img *asm.Image, pol *Policy, opt *Options) (*Engine, error) {
	return NewEngineOn(SharedDesign(), img, pol, opt)
}

// NewEngineOn is NewEngine on an explicit design instead of the shared
// singleton — the hook for analyses of modified netlists such as the
// fault-injection harness in internal/fault.
func NewEngineOn(d *mcu.Design, img *asm.Image, pol *Policy, opt *Options) (*Engine, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	o := opt.withDefaults()
	sys, err := buildSystem(d, img, pol, o.Backend)
	if err != nil {
		return nil, err
	}
	eng := &Engine{
		Sys:      sys,
		Pol:      pol,
		opt:      o,
		table:    make(map[forkKey]*tableEntry),
		seen:     make(map[Violation]bool),
		report:   &Report{Policy: pol.Name},
		ramRange: AddrRange{Lo: d.Map.RAMStart, Hi: d.Map.RAMEnd},
		design:   d,
		img:      img,
	}
	eng.widenAfter = eng.opt.WidenAfter
	eng.snapBytes = sys.SnapshotBytes()
	return eng, nil
}

// buildSystem prepares one simulation instance on the selected evaluation
// backend: program loaded, policy taints applied. The speculation pool uses
// it to give each worker a private system whose ROM, port inputs and reset
// line are identical to the committer's — everything else (flip-flops, RAM)
// arrives via Restore, so two systems built here evaluate any snapshot
// bit-identically.
func buildSystem(d *mcu.Design, img *asm.Image, pol *Policy, backend sim.BackendKind) (*mcu.System, error) {
	sys, err := mcu.NewSystemBackend(d, backend)
	if err != nil {
		return nil, err
	}
	// Pad all of program memory with the target's self-parking traps before
	// placing the image: conservative merging of return addresses can
	// propose candidate PCs that were never actually pushed, and without
	// padding those candidates would execute unknown (X) instruction words
	// and cascade into spurious violations. A trapped candidate parks and
	// is pruned.
	d.FillTraps(func(a, w uint16) { sys.ROM.StoreWord(a, sim.ConcreteWord(w)) })
	sys.LoadImage(img)
	if pol.TaintCodeWords {
		for _, r := range pol.TaintedCode {
			sys.TaintCode(r.Lo, r.Hi)
		}
	}
	for _, r := range pol.InitiallyTaintedData {
		sys.RAM.SetTaint(r.Lo, r.Hi)
	}
	for i := 0; i < mcu.NumPorts; i++ {
		w := sim.Word{XM: 0xffff}
		if pol.TaintedInPort(i) {
			w.TT = 0xffff
		}
		sys.SetPortIn(i, w)
	}
	return sys, nil
}

// Analyze runs Algorithm 1 end to end for one policy.
func Analyze(img *asm.Image, pol *Policy, opt *Options) (*Report, error) {
	return AnalyzeContext(context.Background(), img, pol, opt)
}

// AnalyzeContext is Analyze under a cancellation context: cancellation or
// deadline expiry aborts the exploration cleanly with a partial report
// whose verdict is Incomplete.
func AnalyzeContext(ctx context.Context, img *asm.Image, pol *Policy, opt *Options) (*Report, error) {
	return AnalyzeContextOn(ctx, SharedDesign(), img, pol, opt)
}

// AnalyzeContextOn is AnalyzeContext on an explicit design — the entry
// point for analyzing non-default targets (the design carries all target
// conventions the engine needs).
func AnalyzeContextOn(ctx context.Context, d *mcu.Design, img *asm.Image, pol *Policy, opt *Options) (*Report, error) {
	e, err := NewEngineOn(d, img, pol, opt)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx), nil
}

// Run explores all possible executions and returns the violation report.
func (e *Engine) Run() *Report { return e.RunContext(context.Background()) }

// RunContext explores all possible executions under a cancellation context.
// It always returns a usable Report, fail-closed: cancellation and budget
// exhaustion yield the Incomplete verdict, and any internal panic is
// recovered into an InternalError verdict carrying the panic diagnostic —
// a crash can never masquerade as "verified".
func (e *Engine) RunContext(ctx context.Context) (rep *Report) {
	e.runStart = time.Now()
	e.ctx = ctx
	defer func() {
		e.report.Stats.WallNanos = e.sinceStart().Nanoseconds()
		if p := recover(); p != nil {
			e.report.Err = recoveredError(p)
		}
		rep = e.report
		e.emitProgress(true)
	}()

	if w := e.workerCount(); w > 1 {
		// The stopped pool stays attached so the final (Done) progress
		// snapshot still reports its scheduler counters.
		e.pool = newSpecPool(e, w-1)
		defer e.pool.stop()
	}

	e.Sys.PowerOn()
	e.Sys.Step() // StReset: fetch the reset vector
	entryW := e.Sys.GetWord([]netlist.NetID(e.Sys.D.PC))
	e.curInstr = entryW.Val
	e.push(e.Sys.Snapshot(), e.curInstr, forkKey{}, false)

	for len(e.work) > 0 && e.report.Stats.Cycles < e.opt.MaxCycles {
		if ctx.Err() != nil {
			e.violation(AnalysisIncomplete, e.curInstr,
				fmt.Sprintf("analysis cancelled (%v) with %d pending paths", ctx.Err(), len(e.work)))
			return e.report
		}
		if e.opt.HardMemBytes > 0 && e.memInUse() > e.opt.HardMemBytes {
			e.traceEvent(EvBudget, e.curInstr, len(e.work), "hard memory budget")
			e.violation(AnalysisIncomplete, e.curInstr,
				fmt.Sprintf("memory budget exhausted (%d MiB in use, hard budget %d MiB) with %d pending paths",
					e.memInUse()>>20, e.opt.HardMemBytes>>20, len(e.work)))
			return e.report
		}
		ps := e.work[len(e.work)-1]
		e.work = e.work[:len(e.work)-1]
		e.report.Stats.Paths++
		var tr *specTrace
		if e.pool != nil {
			tr = e.pool.take(ps.id)
		}
		if tr != nil {
			e.traceEvent(EvPathStart, ps.curInstr, len(e.work), "")
			e.replayTrace(ps, tr)
		} else {
			e.Sys.Restore(ps.snap)
			e.curInstr = ps.curInstr
			e.traceEvent(EvPathStart, ps.curInstr, len(e.work), "")
			e.runPathFrom(0)
		}
		e.traceEvent(EvPathEnd, e.curInstr, len(e.work), "")
	}
	if e.ctx.Err() != nil {
		e.violation(AnalysisIncomplete, e.curInstr,
			fmt.Sprintf("analysis cancelled (%v) with %d pending paths", e.ctx.Err(), len(e.work)))
		return e.report
	}
	if len(e.work) > 0 {
		e.traceEvent(EvBudget, e.curInstr, len(e.work), "cycle budget")
		e.violation(AnalysisIncomplete, e.curInstr, fmt.Sprintf("cycle budget exhausted with %d pending paths", len(e.work)))
	}
	return e.report
}

// sinceStart is wall time since RunContext started.
func (e *Engine) sinceStart() time.Duration { return time.Since(e.runStart) }

// workerCount resolves Options.Workers: 0 means GOMAXPROCS, larger counts
// are capped at GOMAXPROCS (more goroutines than processors only add
// private systems the memory budgets never see), and a per-cycle Trace hook
// forces sequential exploration — the hook contract is to observe the live
// simulation of every committed cycle in order, which speculative
// re-execution cannot honor.
func (e *Engine) workerCount() int {
	w := e.opt.Workers
	if max := runtime.GOMAXPROCS(0); w <= 0 || w > max {
		w = max
	}
	if e.opt.Trace != nil {
		w = 1
	}
	return w
}

// memInUse approximates the retained footprint of the conservative state
// table plus the work queue (each entry owns one snapshot).
func (e *Engine) memInUse() int64 {
	used := int64(len(e.table)+len(e.work)) * e.snapBytes
	if used > e.report.Stats.PeakMemBytes {
		e.report.Stats.PeakMemBytes = used
	}
	return used
}

// noteMem re-accounts after table/work growth and, while over the soft
// budget, escalates widening: halving the effective WidenAfter makes hot
// sites merge into superstates on their next visit, which bounds both the
// table and the work queue — graceful degradation (precision for
// convergence) before the hard budget fails the run closed.
func (e *Engine) noteMem() {
	used := e.memInUse()
	if e.opt.SoftMemBytes > 0 && used > e.opt.SoftMemBytes && e.widenAfter > 1 {
		e.widenAfter /= 2
		e.report.Stats.Escalations++
		e.traceEvent(EvEscalation, e.curInstr, e.widenAfter, "soft memory budget")
	}
}

// runPathFrom simulates from the current state until the path is pruned,
// forked, or abandoned. pathCycles seeds the straight-line budget counter:
// 0 for a fresh path, or the cycles already replayed when the committer
// resumes live execution in the middle of a speculated segment.
func (e *Engine) runPathFrom(pathCycles uint64) {
	for e.report.Stats.Cycles < e.opt.MaxCycles {
		if pathCycles&1023 == 1023 && e.ctx.Err() != nil {
			return // the outer loop records the cancellation
		}
		ci := e.Sys.EvalCycle(nil)
		if ci.StateOK && ci.State == mcu.StFetch && ci.PmemOK {
			e.curInstr = ci.PmemAddr
		}
		if !ci.PmemOK {
			e.violation(PCUnresolved, e.curInstr, fmt.Sprintf("fetch address is unknown (pc=%s)", ci.PC))
			return
		}
		e.checkCycle(ci)
		if e.opt.Trace != nil {
			e.opt.Trace(e, ci)
		}
		if ci.PCNext.XM != 0 || ci.POR.V == logic.X || ci.IrqTkn.V == logic.X {
			// Input-dependent control flow, an uncertain watchdog reset, or
			// an uncertain interrupt decision: concretize every direction
			// (Algorithm 1 lines 29-37).
			e.fork(ci)
			return
		}
		e.commitCycle(ci)
		pathCycles++
		if modifiesPC(e.design, ci) {
			// Key the conservative state table on the committing cycle's PC
			// (unique per commit site — including the reset vector load,
			// whose PC is 0) plus the semantic control decisions.
			if e.mergePoint(forkKey{pc: ci.PC.Val, state: stateCode(ci), dir: dirCode(ci.BranchTkn.V, ci.POR.V, ci.IrqTkn.V)}) {
				return // pruned: this state (or a superstate) was explored
			}
		}
		if pathCycles > e.opt.MaxPathCycles {
			e.traceEvent(EvBudget, e.curInstr, len(e.work), "straight-line path cycle budget")
			e.violation(AnalysisIncomplete, e.curInstr, "path exceeded straight-line cycle budget")
			return
		}
	}
}

// commitCycle commits one evaluated cycle and enforces the paper's
// control-flow recovery rule (Section 5.2): once the PC is tainted, only an
// *untainted* power-on reset may untaint it. Architectural PC writes with
// untainted data (a yield jump, a return through a clean stack frame, an
// interrupt-style RETI) do not help, because *when* they execute is itself
// attacker-influenced — so the engine re-taints the PC after any commit
// that is not a clean reset.
func (e *Engine) commitCycle(ci *mcu.CycleInfo) {
	commitOn(e.Sys, ci, e.countCommit)
}

// countCommit accounts one committed cycle against the report and drives
// the progress cadence. Progress is counted in cycles since the last
// emission, not in absolute cycle positions: commits also happen outside
// runPathFrom's loop (fork concretization), so a boundary-position test
// could be stepped over indefinitely and starve the hook on fork-heavy
// runs.
func (e *Engine) countCommit() {
	e.report.Stats.Cycles++
	if e.sinceEmit++; e.sinceEmit >= progressEvery {
		e.emitProgress(false)
	}
}

// advanceCycles accounts delta already-simulated cycles at once — the
// committer's bulk form of countCommit when it replays a speculated
// segment whose cycles were simulated on a worker.
func (e *Engine) advanceCycles(delta uint64) {
	e.report.Stats.Cycles += delta
	if e.sinceEmit += delta; e.sinceEmit >= progressEvery {
		e.emitProgress(false)
	}
}

// commitOn commits one evaluated cycle on sys and applies the re-taint
// rule; onCommitted (the engine's cycle accounting, or a speculation
// worker's local counter) runs between the commit and the re-taint.
func commitOn(sys *mcu.System, ci *mcu.CycleInfo, onCommitted func()) {
	pcWasTainted := ci.PC.TT != 0
	sys.Commit(ci)
	onCommitted()
	cleanReset := ci.POR.V == logic.One && !ci.POR.T
	if pcWasTainted && !cleanReset {
		for _, bit := range sys.D.PC {
			sg := sys.C.Get(bit)
			sg.T = true
			sys.C.SetInput(bit, sg)
		}
	}
}

// modifiesPC reports whether the committed cycle changed the PC
// non-sequentially — a PC-changing instruction in Algorithm 1's sense.
// These are the points where the conservative state table applies. The
// target's conventions supply the sequential PC step and the jump-word
// predicate (which catches taken self-jumps the delta test cannot see).
func modifiesPC(d *mcu.Design, ci *mcu.CycleInfo) bool {
	if ci.PCNext.XM != 0 || ci.PC.XM != 0 || ci.POR.V != logic.Zero || ci.IrqTkn.V != logic.Zero {
		return true
	}
	if ci.StateOK && ci.State == mcu.StFetch && ci.Fetch.XM == 0 && d.JumpWord(ci.Fetch.Val) {
		return true // a jump instruction, including a self-jump (jmp $)
	}
	return ci.PCNext.Val != ci.PC.Val && ci.PCNext.Val != ci.PC.Val+d.PCStep
}

// tableOutcome classifies one application of the conservative state table
// to a PC-changing commit's post-state.
type tableOutcome uint8

const (
	// tableInserted: first visit; a clone of the state became the entry.
	tableInserted tableOutcome = iota
	// tableReplaced: below the widening threshold; the entry now tracks
	// this precise state and the path continues from it unchanged.
	tableReplaced
	// tablePruned: the state is covered by the entry; stop the path.
	tablePruned
	// tableWidened: the entry was widened to a superstate covering this
	// state; the path must continue from the returned superstate.
	tableWidened
)

// tableApply runs the conservative-state-table protocol for key k against
// post — the single authority shared by merge points, successor pushes and
// speculation replay, so all three stay byte-for-byte equivalent. On
// tableWidened the second result is the conservative superstate (owned by
// the table; callers must Clone before mutating or enqueueing it).
func (e *Engine) tableApply(k forkKey, post *mcu.Snapshot) (tableOutcome, *mcu.Snapshot) {
	e.tableMu.Lock()
	defer e.tableMu.Unlock()
	if c, ok := e.table[k]; ok {
		c.visits++
		if post.SubstateOf(c.snap) {
			e.report.Stats.Prunes++
			e.traceEvent(EvPrune, k.pc, len(e.table), "")
			return tablePruned, nil
		}
		if c.visits <= e.widenAfter {
			// Below the widening threshold: track the precise state so
			// concretely-bounded loops unroll exactly.
			c.snap = post.Clone()
			return tableReplaced, nil
		}
		c.snap.MergeFrom(post)
		e.report.Stats.Merges++
		e.traceEvent(EvMerge, k.pc, len(e.table), "")
		return tableWidened, c.snap
	}
	e.table[k] = &tableEntry{snap: post.Clone(), visits: 1}
	e.report.Stats.TableStates = len(e.table)
	return tableInserted, nil
}

// mergePoint applies the conservative state table after committing a
// PC-changing cycle. It returns true when the path should stop (the state
// is covered by what has already been explored); otherwise the simulation
// continues from the (possibly widened) conservative superstate.
func (e *Engine) mergePoint(k forkKey) bool {
	switch oc, cont := e.tableApply(k, e.Sys.Snapshot()); oc {
	case tablePruned:
		return true
	case tableWidened:
		e.Sys.Restore(cont)
	case tableInserted:
		e.noteMem()
	}
	return false
}

// fork concretizes an unknown PC-next value by re-evaluating the cycle with
// the unknown control decisions forced to each combination of concrete
// values (keeping their taint, so a tainted condition taints the PC on both
// paths), then enqueues the surviving successor states. Two decision nets
// can make the PC unknown: the branch_taken probe (input-dependent
// conditional control flow) and the power-on-reset (a watchdog expiry whose
// countdown state was widened to X by conservative merging — the reset may
// or may not fire this cycle, so both worlds are explored).
func (e *Engine) fork(ci *mcu.CycleInfo) {
	forkOutcomes(e.Sys, ci,
		func(detail string) {
			e.violation(PCUnresolved, e.curInstr, detail)
		},
		func(k forkKey, civ *mcu.CycleInfo) {
			e.commitCycle(civ)
			e.report.Stats.Forks++
			e.push(e.Sys.Snapshot(), e.curInstr, k, true)
			e.traceEvent(EvFork, k.pc, len(e.work), "")
		})
}

// forkOutcomes enumerates every concretization of an unknown-PC cycle in a
// fixed deterministic order, shared by the live engine and the speculation
// workers. For each combination it either reports an unresolved target
// (onUnresolved, with the violation detail) or evaluates the forced cycle
// and hands it to onSucc, which must commit it; sys is left in the last
// combination's state.
func forkOutcomes(sys *mcu.System, ci *mcu.CycleInfo,
	onUnresolved func(detail string), onSucc func(k forkKey, civ *mcu.CycleInfo)) {
	pre := sys.Snapshot()

	type cand struct {
		net netlist.NetID
		sig logic.Sig
	}
	var cands []cand
	if ci.BranchTkn.V == logic.X {
		cands = append(cands, cand{sys.D.BranchTaken, ci.BranchTkn})
	}
	if por := sys.C.Get(sys.D.POR); por.V == logic.X {
		cands = append(cands, cand{sys.D.POR, por})
	}
	if ci.IrqTkn.V == logic.X {
		cands = append(cands, cand{sys.D.IrqTaken, ci.IrqTkn})
	}
	if len(cands) == 0 {
		// The unknown PC comes from data (e.g. a return address widened by
		// conservative merging, or a computed branch target). When only a
		// few bits are unknown, enumerate the candidate targets by forcing
		// the PC register's D inputs — Algorithm 1's
		// possible_PC_next_vals(e') for the data-dependent case. Beyond
		// that, report conservatively (Footnote 4's heuristics territory).
		const maxXBits = 4
		var xbits []int
		for i := 0; i < 16; i++ {
			if ci.PCNext.XM>>uint(i)&1 == 1 {
				xbits = append(xbits, i)
			}
		}
		if len(xbits) == 0 || len(xbits) > maxXBits {
			onUnresolved("PC target unknown (indirect control flow through unknown data)")
			return
		}
		for combo := 0; combo < 1<<len(xbits); combo++ {
			sys.Restore(pre)
			forced := make(map[netlist.NetID]logic.Sig, len(xbits))
			for j, bit := range xbits {
				forced[sys.D.PCNext[bit]] = logic.Sig{
					V: logic.FromBool(combo>>uint(j)&1 == 1),
					T: ci.PCNext.TT>>uint(bit)&1 == 1,
				}
			}
			civ := sys.EvalCycle(forced)
			if civ.PCNext.XM != 0 {
				onUnresolved("PC target unknown even with candidate enumeration")
				continue
			}
			onSucc(forkKey{pc: civ.PC.Val, state: stateCode(civ), dir: uint8(100 + combo)}, civ)
		}
		return
	}

	for combo := 0; combo < 1<<len(cands); combo++ {
		sys.Restore(pre)
		forced := make(map[netlist.NetID]logic.Sig, len(cands))
		for i, c := range cands {
			v := logic.Zero
			if combo>>uint(i)&1 == 1 {
				v = logic.One
			}
			forced[c.net] = logic.Sig{V: v, T: c.sig.T}
		}
		civ := sys.EvalCycle(forced)
		if civ.PCNext.XM != 0 {
			onUnresolved(fmt.Sprintf("PC target unknown even with control decisions forced (st=%d pcnext=%s)", civ.State, civ.PCNext))
			continue
		}
		onSucc(forkKey{pc: civ.PC.Val, state: stateCode(civ), dir: dirCode(civ.BranchTkn.V, civ.POR.V, civ.IrqTkn.V)}, civ)
	}
}

// dirCode encodes the semantic control decisions of a committed cycle (the
// branch decision, the power-on reset, and the interrupt entry) so that
// conservative-state-table entries never mix states with different
// successor PCs.
func dirCode(bt, por, irq logic.V) uint8 {
	return (uint8(bt)*3+uint8(por))*3 + uint8(irq)
}

// stateCode tags a cycle with its FSM state for the fork key.
func stateCode(ci *mcu.CycleInfo) uint8 {
	if !ci.StateOK {
		return 0xff
	}
	return uint8(ci.State)
}

// push enqueues a successor state, first applying the conservative state
// table (prune if covered, widen otherwise).
func (e *Engine) push(post *mcu.Snapshot, curInstr uint16, k forkKey, applyTable bool) {
	next := curInstr
	if applyTable {
		switch oc, cont := e.tableApply(k, post); oc {
		case tablePruned:
			return
		case tableWidened:
			post = cont.Clone()
		}
	}
	e.pushSeq++
	e.work = append(e.work, pathState{snap: post, curInstr: next, id: e.pushSeq})
	if e.pool != nil {
		e.pool.offer(e.pushSeq, post, next)
	}
	e.noteMem()
}

// violationDedupKey is the (kind, pc) identity violations deduplicate on.
// State-condition kinds latch machine-wide: once the watchdog or an output
// port register is tainted, every later cycle re-observes it; those
// deduplicate on the kind alone so only the first (root-cause) report
// survives. Shared with the speculation workers, whose local deduplication
// must drop exactly the raises the live engine would drop.
func violationDedupKey(k Kind, pc uint16) Violation {
	if k == WatchdogTainted || k == OutputPortTainted || k == C1TaintedState {
		pc = 0
	}
	return Violation{Kind: k, PC: pc}
}

func (e *Engine) violation(k Kind, pc uint16, detail string) {
	key := violationDedupKey(k, pc)
	if e.seen[key] {
		return
	}
	e.seen[key] = true
	v := Violation{Kind: k, PC: pc, Detail: detail, Cycle: e.report.Stats.Cycles}
	e.report.Violations = append(e.report.Violations, v)
	e.traceEvent(EvViolation, pc, 0, k.String())
}

// ---- Per-cycle policy checking (Section 4.2 / 5.1) ----

// anyTainted scans a probe word bit by bit. Unlike GetWord(...).Tainted()
// it is width-safe: GetWord packs into a 16-bit sim.Word and silently
// drops bits 16 and up, which would make the scan unsound for a target
// with registers wider than 16 bits (identical behaviour at width <= 16).
func anyTainted(sys *mcu.System, nets []netlist.NetID) bool {
	for _, id := range nets {
		if sys.GetSig(id).T {
			return true
		}
	}
	return false
}

// cycleChecker evaluates the per-cycle policy conditions against one
// simulation instance, raising violations through a pluggable sink. The
// live engine raises into its report; speculation workers record raises
// into their segment trace for deterministic replay.
type cycleChecker struct {
	sys      *mcu.System
	pol      *Policy
	ramRange AddrRange
	raise    func(k Kind, pc uint16, detail string)
}

// checkCycle runs the policy checks on the engine's own system.
func (e *Engine) checkCycle(ci *mcu.CycleInfo) {
	c := cycleChecker{sys: e.Sys, pol: e.Pol, ramRange: e.ramRange, raise: e.violation}
	c.check(ci, e.curInstr)
}

func (c *cycleChecker) check(ci *mcu.CycleInfo, curInstr uint16) {
	taintedTask := c.pol.InTaintedCode(curInstr)

	// C1: untainted code must start executing on an untainted processor.
	if ci.StateOK && ci.State == mcu.StFetch && !taintedTask {
		if name, bad := c.coreStateTainted(); bad {
			c.raise(C1TaintedState, curInstr, fmt.Sprintf("untainted code fetch with tainted state element %s", name))
		}
	}

	if ci.Re.V != logic.Zero {
		c.checkLoad(ci, curInstr, taintedTask)
	}
	if ci.We.V != logic.Zero {
		c.checkStore(ci, curInstr, taintedTask)
	}

	// Watchdog integrity: the untainted-reset mechanism is sound only while
	// the watchdog's state and write strobe stay untainted (Section 5.2).
	d := c.sys.D
	if c.sys.GetSig(d.WdtWe).T ||
		anyTainted(c.sys, d.WdtCtl) ||
		anyTainted(c.sys, d.WdtCnt) {
		c.raise(WatchdogTainted, curInstr, "watchdog control state or write strobe tainted")
	}

	// Direct non-interference: untainted output ports must stay untainted.
	for i := 0; i < mcu.NumPorts; i++ {
		if c.pol.TaintedOutPort(i) {
			continue
		}
		if anyTainted(c.sys, d.PortOut[i]) {
			c.raise(OutputPortTainted, curInstr, fmt.Sprintf("output port P%d is tainted", i+1))
		}
	}
}

// coreStateTainted scans the processor's architectural flip-flops: the PC,
// status register and register file. The IR/SRCREG/EA latches and the FSM
// state register are excluded: they are dead at instruction boundaries by
// construction (every instruction writes them before any read, and nothing
// else can observe them), so residual taint there cannot influence a later
// task — see DESIGN.md.
func (c *cycleChecker) coreStateTainted() (string, bool) {
	d := c.sys.D
	named := []struct {
		name string
		w    []netlist.NetID
	}{
		{"pc", d.PC}, {"sr", d.SR},
	}
	for _, n := range named {
		if anyTainted(c.sys, n.w) {
			return n.name, true
		}
	}
	for r := 0; r < 16; r++ {
		if d.Regs[r] == nil {
			continue
		}
		if anyTainted(c.sys, d.Regs[r]) {
			return d.RegName[r], true
		}
	}
	return "", false
}

func (c *cycleChecker) checkLoad(ci *mcu.CycleInfo, curInstr uint16, taintedTask bool) {
	if taintedTask {
		return // tainted code may read anything tainted; C4 guards the rest
	}
	addr := ci.Addr
	free := addr.XM | addr.TT
	if free == 0 {
		a := addr.Val
		if c.pol.InTaintedData(a) {
			c.raise(C3LoadTainted, curInstr, fmt.Sprintf("untainted code loads from tainted partition address %#04x", a))
		}
		if i, ok := portInIndex(c.sys.D, a); ok && c.pol.TaintedInPort(i) {
			c.raise(C4ReadTaintedPort, curInstr, fmt.Sprintf("untainted code reads tainted input port P%d", i+1))
		}
		return
	}
	// Unknown address: check the whole cover.
	for _, r := range c.pol.TaintedData {
		if r.IntersectsPattern(free, addr.Val) {
			c.raise(C3LoadTainted, curInstr, "unknown load address may reach a tainted partition")
			break
		}
	}
	for i := 0; i < mcu.NumPorts; i++ {
		if c.pol.TaintedInPort(i) && matchesPattern(c.sys.D.Map.PortIn[i], free, addr.Val) {
			c.raise(C4ReadTaintedPort, curInstr, "unknown load address may reach a tainted input port")
			break
		}
	}
}

func (c *cycleChecker) checkStore(ci *mcu.CycleInfo, curInstr uint16, taintedTask bool) {
	d := c.sys.D
	addr, data := ci.Addr, ci.WData
	free := addr.XM | addr.TT
	taintsTarget := data.Tainted() || addr.TT != 0 || ci.We.T

	if free == 0 {
		a := addr.Val
		switch {
		case c.ramRange.Contains(a):
			if taintsTarget && !c.pol.InTaintedData(a) {
				c.raise(C2MemoryEscape, curInstr, fmt.Sprintf("tainted store to untainted memory %#04x", a))
			}
		case a&^1 == d.Map.WdtCtl:
			if taintedTask || taintsTarget {
				c.raise(WatchdogTainted, curInstr, "tainted code or tainted data writes WDTCTL")
			}
		default:
			if i, ok := portOutIndex(d, a); ok && !c.pol.TaintedOutPort(i) {
				if taintedTask {
					c.raise(C5WriteUntaintedPort, curInstr, fmt.Sprintf("tainted code writes untainted output port P%d", i+1))
				} else if taintsTarget {
					c.raise(OutputPortTainted, curInstr, fmt.Sprintf("tainted data written to untainted output port P%d", i+1))
				}
			}
		}
		return
	}

	// Unknown store address: what it may cover is at risk — but only a
	// store that can *taint* its target (tainted data, tainted address
	// bits, or a tainted write strobe) violates the information flow
	// policy. An unknown-but-untainted address (e.g. a loop induction
	// variable widened by conservative merging) writes unknown values,
	// not attacker-influenced ones.
	if !taintsTarget {
		return
	}
	if c.pol.patternEscapes(free, addr.Val, c.ramRange) {
		c.raise(C2MemoryEscape, curInstr, "store address unknown/tainted: may taint an untainted memory partition")
	}
	if matchesPattern(d.Map.WdtCtl, free, addr.Val) {
		c.raise(WatchdogTainted, curInstr, "unknown store address may reach WDTCTL")
	}
	for i := 0; i < mcu.NumPorts; i++ {
		if !c.pol.TaintedOutPort(i) && matchesPattern(d.Map.PortOut[i], free, addr.Val) {
			kind := OutputPortTainted
			if taintedTask {
				kind = C5WriteUntaintedPort
			}
			c.raise(kind, curInstr, fmt.Sprintf("unknown store address may reach untainted output port P%d", i+1))
		}
	}
}

func matchesPattern(a, free, want uint16) bool {
	fixed := ^free
	return a&fixed == want&fixed || (a+1)&fixed == want&fixed
}

func portInIndex(d *mcu.Design, a uint16) (int, bool) {
	for i := 0; i < mcu.NumPorts; i++ {
		if a&^1 == d.Map.PortIn[i] {
			return i, true
		}
	}
	return 0, false
}

func portOutIndex(d *mcu.Design, a uint16) (int, bool) {
	for i := 0; i < mcu.NumPorts; i++ {
		if a&^1 == d.Map.PortOut[i] {
			return i, true
		}
	}
	return 0, false
}
