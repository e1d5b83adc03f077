package glift

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/logic"
	"repro/internal/mcu"
)

// Parallel exploration.
//
// The work queue's paths are independent simulations, but the conservative
// state table is not: whether a path prunes, how table entries widen, and
// every Stats counter depend on the exact order in which merge points hit
// the table. A racy table behind locks would make reports depend on thread
// scheduling — unacceptable, because Options.Workers is excluded from
// content-addressed job keys on the guarantee that results are identical.
//
// The engine therefore parallelizes the expensive part (gate-level
// simulation) while keeping the table protocol strictly sequential:
//
//   - N-1 speculation workers pull queued pathStates and simulate them
//     table-blind on private mcu.System instances, recording a trace: the
//     post-state snapshot at every PC-changing commit, the violations
//     raised in between, and how the segment ended (fork, abandonment,
//     truncation).
//   - The committer (the RunContext goroutine) pops the work queue in
//     normal DFS order. When a completed trace exists for the popped item
//     it replays the recorded table operations through the same
//     tableApply/push protocol the live path uses — at snapshot-compare
//     speed instead of simulation speed. The moment the authoritative
//     table disagrees with what the speculation assumed (a prune, or a
//     widen that changes the continuation state), the remaining trace is
//     discarded and the committer resumes live simulation from the last
//     recorded snapshot.
//
// Speculation is sound because table feedback into a running path happens
// only at a widen (the path continues from the merged superstate) — and
// that is exactly where replay falls back to live execution. Everywhere
// else the sequential engine continues from its own post-state, which the
// worker, having started from the same snapshot and simulated the same
// deterministic netlist, reproduced bit-identically. Misprediction
// therefore costs wasted worker time, never a wrong answer.

// SchedStats is a point-in-time view of the speculation scheduler,
// exported through Progress for observability. It is deliberately kept out
// of Stats: reports must stay byte-identical across worker counts.
type SchedStats struct {
	// Workers is the number of speculation workers (0: sequential run).
	Workers int
	// Busy is how many workers are simulating a segment right now.
	Busy int
	// DequeDepth is the number of queued path states no worker has claimed.
	DequeDepth int
	// Steals counts path states claimed by speculation workers.
	Steals uint64
	// SpecUsed counts speculated traces the committer replayed.
	SpecUsed uint64
	// SpecWasted counts speculated segments discarded before use (the
	// committer reached the item first, or the run ended).
	SpecWasted uint64
}

// specItem states. An item moves specPending → specClaimed → specDone as a
// worker processes it; the committer moves it to specTaken from any
// non-done state when it pops the item, which tells an in-flight worker to
// abandon the segment.
const (
	specPending int32 = iota
	specClaimed
	specDone
	specTaken
)

// specEvent is one recorded violation raise (or, with budget set, the
// EvBudget trace marker that precedes the straight-line-budget violation),
// stamped with the segment-relative committed-cycle count at raise time.
type specEvent struct {
	cycles uint64
	kind   Kind
	pc     uint16
	detail string
	budget bool
}

// specOp is one recorded PC-changing commit: the table key, the post-commit
// machine state, and everything observed since the previous op.
type specOp struct {
	key      forkKey
	post     *mcu.Snapshot
	curInstr uint16
	cycles   uint64 // segment cycles committed, including this op's cycle
	events   []specEvent
}

// specAction is one fork-combination outcome, in enumeration order: either
// an unresolved-PC violation (viol set) or a committed successor state.
type specAction struct {
	viol *specEvent
	key  forkKey
	snap *mcu.Snapshot
}

// specEnd tells the committer how a speculated segment terminated.
type specEnd uint8

const (
	// endTruncated: the worker stopped early (self-covering loop, op or
	// byte cap, global-cycle bound); resume live from the last op.
	endTruncated specEnd = iota
	// endPathDone: the path ended in a violation (unresolved fetch or the
	// straight-line cycle budget); preEnd carries the terminal events.
	endPathDone
	// endFork: the path reached an unknown-PC cycle; fork holds the
	// concretized outcomes.
	endFork
)

// specTrace is the complete record of one speculated segment.
type specTrace struct {
	ops    []specOp
	preEnd []specEvent // events after the last op, including terminal ones
	end    specEnd
	// endCycles is the segment cycle count when the terminal cycle was
	// evaluated (commits before it, excluding fork-successor commits).
	endCycles uint64
	endInstr  uint16
	fork      []specAction
	bytes     int64 // snapshot bytes accounted against the pool budget
}

// specItem is one queued path state as the pool tracks it.
type specItem struct {
	id       uint64
	snap     *mcu.Snapshot
	curInstr uint16
	state    atomic.Int32
	trace    *specTrace
}

// maxSpecOps caps the ops recorded per segment, bounding both a single
// trace's memory and the worst-case waste when a trace is discarded.
const maxSpecOps = 4096

// specPool runs the speculation workers and tracks per-item state.
type specPool struct {
	e       *Engine
	workers int
	// budget bounds the snapshot bytes retained by not-yet-replayed traces
	// across all workers (the atomic footprint counter for speculation).
	// Crossing it only truncates new traces — it never aborts anything, so
	// it cannot influence the report.
	budget int64

	mu      sync.Mutex
	cond    *sync.Cond
	pending []*specItem
	items   map[uint64]*specItem
	stopped bool

	wg   sync.WaitGroup
	done atomic.Bool

	busy      atomic.Int64
	steals    atomic.Uint64
	used      atomic.Uint64
	wasted    atomic.Uint64
	specBytes atomic.Int64
}

func newSpecPool(e *Engine, workers int) *specPool {
	budget := int64(512 << 20)
	if e.opt.SoftMemBytes > 0 {
		budget = e.opt.SoftMemBytes
	}
	p := &specPool{
		e:       e,
		workers: workers,
		budget:  budget,
		items:   make(map[uint64]*specItem),
	}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// offer registers a freshly enqueued path state for speculation. Called by
// the committer only; snapshots are immutable once taken, so sharing them
// with workers needs no copying.
func (p *specPool) offer(id uint64, snap *mcu.Snapshot, curInstr uint16) {
	it := &specItem{id: id, snap: snap, curInstr: curInstr}
	p.mu.Lock()
	p.items[id] = it
	p.pending = append(p.pending, it)
	p.mu.Unlock()
	p.cond.Signal()
}

// take claims the popped item for the committer. It returns the completed
// speculation trace if one exists; otherwise it marks the item taken (which
// aborts any in-flight worker) and the committer simulates live.
func (p *specPool) take(id uint64) *specTrace {
	p.mu.Lock()
	it := p.items[id]
	delete(p.items, id)
	p.mu.Unlock()
	if it == nil {
		return nil
	}
	for {
		switch st := it.state.Load(); st {
		case specDone:
			p.used.Add(1)
			p.specBytes.Add(-it.trace.bytes)
			return it.trace
		default:
			if it.state.CompareAndSwap(st, specTaken) {
				if st == specClaimed {
					p.wasted.Add(1)
				}
				return nil
			}
		}
	}
}

// stop terminates the workers and waits for them; in-flight segments are
// abandoned at their next poll.
func (p *specPool) stop() {
	p.done.Store(true)
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// sched snapshots the scheduler state for Progress emissions.
func (p *specPool) sched() SchedStats {
	depth := 0
	p.mu.Lock()
	for _, it := range p.pending {
		if it.state.Load() == specPending {
			depth++
		}
	}
	p.mu.Unlock()
	return SchedStats{
		Workers:    p.workers,
		Busy:       int(p.busy.Load()),
		DequeDepth: depth,
		Steals:     p.steals.Load(),
		SpecUsed:   p.used.Load(),
		SpecWasted: p.wasted.Load(),
	}
}

// next claims the most recently queued unclaimed item — the one the
// committer will reach soonest under DFS order, which maximizes the chance
// the speculation completes in time to be used.
func (p *specPool) next() *specItem {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for len(p.pending) > 0 {
			it := p.pending[len(p.pending)-1]
			p.pending = p.pending[:len(p.pending)-1]
			if it.state.CompareAndSwap(specPending, specClaimed) {
				p.steals.Add(1)
				return it
			}
		}
		if p.stopped {
			return nil
		}
		p.cond.Wait()
	}
}

// worker is one speculation goroutine: claim, simulate, publish.
func (p *specPool) worker() {
	defer p.wg.Done()
	var sys *mcu.System
	for {
		it := p.next()
		if it == nil {
			return
		}
		if sys == nil {
			s, err := buildSystem(p.e.design, p.e.img, p.e.Pol, p.e.opt.Backend)
			if err != nil {
				// Cannot build a private system: release the claim so the
				// committer simulates live, and retire this worker.
				it.state.CompareAndSwap(specClaimed, specTaken)
				return
			}
			sys = s
		}
		p.busy.Add(1)
		tr := p.speculateSafe(sys, it)
		p.busy.Add(-1)
		sys.Events() // drain diagnostics so a reused system cannot grow unbounded
		p.publish(it, tr)
	}
}

// publish installs a completed trace on its item (or releases the claim when
// tr is nil, so the committer simulates the item live).
func (p *specPool) publish(it *specItem, tr *specTrace) {
	if tr == nil {
		it.state.CompareAndSwap(specClaimed, specTaken)
		return
	}
	p.specBytes.Add(tr.bytes)
	it.trace = tr
	if !it.state.CompareAndSwap(specClaimed, specDone) {
		// The committer reached the item while we simulated it.
		p.specBytes.Add(-tr.bytes)
		p.wasted.Add(1)
	}
}

// speculateSafe runs speculate under a recover barrier: if the simulation
// panics, the trace is dropped and the committer reproduces the panic live
// inside RunContext's fail-closed recover, so parallel runs keep the exact
// InternalError semantics of sequential ones.
func (p *specPool) speculateSafe(sys *mcu.System, it *specItem) (tr *specTrace) {
	defer func() {
		if r := recover(); r != nil {
			tr = nil
		}
	}()
	return p.speculate(sys, it)
}

// speculate simulates one queued path state table-blind, recording the
// trace the committer needs to replay it deterministically. It mirrors
// runPathFrom cycle for cycle; the only table it consults is its own
// segment-local one (selfTab), used purely to stop simulating loops that
// will certainly prune. Returns nil when the segment was abandoned
// (committer took the item, or the pool stopped).
func (p *specPool) speculate(sys *mcu.System, it *specItem) *specTrace {
	e := p.e
	sys.Restore(it.snap)
	tr := &specTrace{}
	var cycles uint64
	curInstr := it.curInstr
	var pending []specEvent
	seen := make(map[Violation]bool)
	selfTab := make(map[forkKey]*mcu.Snapshot)

	raise := func(k Kind, pc uint16, detail string) {
		key := violationDedupKey(k, pc)
		if seen[key] {
			return
		}
		seen[key] = true
		pending = append(pending, specEvent{cycles: cycles, kind: k, pc: pc, detail: detail})
	}
	chk := cycleChecker{sys: sys, pol: e.Pol, ramRange: e.ramRange, raise: raise}
	truncate := func() *specTrace {
		tr.end = endTruncated
		tr.endCycles = cycles
		tr.endInstr = curInstr
		return tr
	}

	for {
		// An atomic load per cycle is noise next to a netlist evaluation,
		// and abandoning a segment the committer already passed frees this
		// worker for an item whose trace can still arrive in time.
		if it.state.Load() == specTaken || p.done.Load() {
			return nil
		}
		ci := sys.EvalCycle(nil)
		if ci.StateOK && ci.State == mcu.StFetch && ci.PmemOK {
			curInstr = ci.PmemAddr
		}
		if !ci.PmemOK {
			raise(PCUnresolved, curInstr, fmt.Sprintf("fetch address is unknown (pc=%s)", ci.PC))
			tr.preEnd, tr.end, tr.endCycles, tr.endInstr = pending, endPathDone, cycles, curInstr
			return tr
		}
		chk.check(ci, curInstr)
		if ci.PCNext.XM != 0 || ci.POR.V == logic.X || ci.IrqTkn.V == logic.X {
			tr.preEnd, tr.endCycles, tr.endInstr = pending, cycles, curInstr
			pending = nil
			forkOutcomes(sys, ci,
				func(detail string) {
					key := violationDedupKey(PCUnresolved, curInstr)
					if seen[key] {
						return
					}
					seen[key] = true
					tr.fork = append(tr.fork, specAction{
						viol: &specEvent{kind: PCUnresolved, pc: curInstr, detail: detail},
					})
				},
				func(k forkKey, civ *mcu.CycleInfo) {
					commitOn(sys, civ, func() { cycles++ })
					tr.fork = append(tr.fork, specAction{key: k, snap: sys.Snapshot()})
					tr.bytes += e.snapBytes
				})
			tr.end = endFork
			return tr
		}
		commitOn(sys, ci, func() { cycles++ })
		if modifiesPC(e.design, ci) {
			k := forkKey{pc: ci.PC.Val, state: stateCode(ci), dir: dirCode(ci.BranchTkn.V, ci.POR.V, ci.IrqTkn.V)}
			post := sys.Snapshot()
			tr.ops = append(tr.ops, specOp{key: k, post: post, curInstr: curInstr, cycles: cycles, events: pending})
			pending = nil
			tr.bytes += e.snapBytes
			if e.tableCovers(k, post) {
				// The authoritative table already covers this state: the
				// committer will almost certainly prune at this op, so
				// simulating further is almost certainly waste. This read
				// is advisory — it decides only where the trace stops,
				// never what it contains, so a stale answer costs time,
				// not determinism.
				return truncate()
			}
			if prev, ok := selfTab[k]; ok && post.SubstateOf(prev) {
				// The segment revisits its own merge point with a covered
				// state: the authoritative table will prune here too (its
				// entry covers at least as much), so simulating further is
				// pure waste.
				return truncate()
			}
			selfTab[k] = post
			if len(tr.ops) >= maxSpecOps || p.specBytes.Load()+tr.bytes > p.budget {
				return truncate()
			}
		}
		if cycles > e.opt.MaxPathCycles {
			pending = append(pending, specEvent{
				cycles: cycles, pc: curInstr, detail: "straight-line path cycle budget", budget: true,
			})
			raise(AnalysisIncomplete, curInstr, "path exceeded straight-line cycle budget")
			tr.preEnd, tr.end, tr.endCycles, tr.endInstr = pending, endPathDone, cycles, curInstr
			return tr
		}
		if cycles >= e.opt.MaxCycles {
			// The segment alone exceeds the whole run's cycle budget;
			// whatever the committer does, it will stop inside this stretch.
			return truncate()
		}
	}
}

// tableCovers reports whether the authoritative table entry at k already
// covers post. Speculation workers use it to stop simulating a segment the
// committer will prune — in the converged regime most popped paths die at
// their first merge point, and a table-blind worker would otherwise burn
// its time simulating far beyond it. The answer is advisory: it truncates
// the trace (whose tail the committer replaces with live execution when
// the real table disagrees), so a racy-stale read can cost throughput but
// can never change the report.
func (e *Engine) tableCovers(k forkKey, post *mcu.Snapshot) bool {
	e.tableMu.RLock()
	defer e.tableMu.RUnlock()
	c, ok := e.table[k]
	return ok && post.SubstateOf(c.snap)
}

// replayTrace commits one speculated segment: it re-applies the recorded
// merge points to the authoritative state table in exact sequential order,
// emits the recorded violations and trace events with their exact cycle
// stamps, and falls back to live simulation the moment the table's verdict
// diverges from what the speculation could assume (a prune ends the path; a
// widen resumes it live from the merged superstate; a global-budget
// crossing finishes the stretch cycle by cycle so the stop lands exactly
// where the sequential run stops).
func (e *Engine) replayTrace(ps pathState, tr *specTrace) {
	segBase := e.report.Stats.Cycles
	committed := uint64(0)
	advanceTo := func(c uint64) {
		if c > committed {
			e.advanceCycles(c - committed)
			committed = c
		}
	}
	emit := func(ev *specEvent) {
		advanceTo(ev.cycles)
		if ev.budget {
			e.traceEvent(EvBudget, ev.pc, len(e.work), ev.detail)
			return
		}
		e.violation(ev.kind, ev.pc, ev.detail)
	}
	// resumeAt switches to live simulation from a recorded state. The
	// straight-line budget is checked first because the sequential loop
	// checks it after the merge point that replay just applied.
	resumeAt := func(snap *mcu.Snapshot, curInstr uint16, pathCycles uint64) {
		e.Sys.Restore(snap)
		e.curInstr = curInstr
		if pathCycles > e.opt.MaxPathCycles {
			e.traceEvent(EvBudget, e.curInstr, len(e.work), "straight-line path cycle budget")
			e.violation(AnalysisIncomplete, e.curInstr, "path exceeded straight-line cycle budget")
			return
		}
		e.runPathFrom(pathCycles)
	}
	// resumeLast resumes from the most recent recorded op (or the segment
	// start when nothing was recorded yet).
	resumeLast := func() {
		if n := len(tr.ops); n > 0 {
			o := &tr.ops[n-1]
			resumeAt(o.post, o.curInstr, o.cycles)
			return
		}
		resumeAt(ps.snap, ps.curInstr, 0)
	}

	for i := range tr.ops {
		op := &tr.ops[i]
		if e.ctx.Err() != nil {
			return // the outer loop records the cancellation
		}
		if segBase+op.cycles > e.opt.MaxCycles {
			// This op's stretch crosses the global cycle budget: finish it
			// live so the run stops on the exact cycle the sequential
			// exploration would.
			if i == 0 {
				resumeAt(ps.snap, ps.curInstr, 0)
			} else {
				prev := &tr.ops[i-1]
				resumeAt(prev.post, prev.curInstr, prev.cycles)
			}
			return
		}
		for j := range op.events {
			emit(&op.events[j])
		}
		advanceTo(op.cycles)
		e.curInstr = op.curInstr
		switch oc, cont := e.tableApply(op.key, op.post); oc {
		case tablePruned:
			return
		case tableInserted:
			e.noteMem()
		case tableWidened:
			// The table continues from the merged superstate, which the
			// table-blind speculation could not know; the rest of the
			// trace no longer applies.
			resumeAt(cont, op.curInstr, op.cycles)
			return
		}
	}
	if e.ctx.Err() != nil {
		return
	}
	if tr.end == endTruncated {
		resumeLast()
		return
	}
	if segBase+tr.endCycles >= e.opt.MaxCycles {
		// The trailing stretch reaches (or crosses) the global budget
		// before the terminal cycle could execute: replay it live for an
		// exact stop.
		resumeLast()
		return
	}
	for j := range tr.preEnd {
		emit(&tr.preEnd[j])
	}
	advanceTo(tr.endCycles)
	e.curInstr = tr.endInstr
	if tr.end == endFork {
		for i := range tr.fork {
			a := &tr.fork[i]
			if a.viol != nil {
				e.violation(a.viol.kind, a.viol.pc, a.viol.detail)
				continue
			}
			e.advanceCycles(1)
			e.report.Stats.Forks++
			e.push(a.snap, e.curInstr, a.key, true)
			e.traceEvent(EvFork, a.key.pc, len(e.work), "")
		}
	}
}
