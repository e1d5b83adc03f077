package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// BatchLanes is the lane capacity of one bitsliced evaluation word: every
// net is held as three uint64 bit-planes, so one word operation evaluates a
// gate across up to 64 independent analysis contexts at once.
const BatchLanes = 64

// bitslice is the bitsliced evaluation core behind BatchBackend. Each net
// carries three uint64 planes, where bit i of each word is lane i's state:
//
//	L ("can be 0")  H ("can be 1")  T (taint)
//	0:  L=1 H=0         1:  L=0 H=1         X:  L=1 H=1
//
// (L=0,H=0 — the empty value — never occurs.) GLIFT propagation for each
// gate op becomes a handful of straight-line AND/OR/NOT word ops on the
// input planes (see evalGate), exactly equivalent per lane to the
// logic.Eval LUTs — bitslice_test.go proves this exhaustively over every
// valid input combination of every op.
//
// Scheduling mirrors the compiled backend one-for-one: the netlist is
// lowered once into a flat level-ordered instruction stream with a CSR
// fanout adjacency, and Eval drains per-level dirty worklists seeded by
// changed nets, with whole-plane word compares as the change detector. The
// forced-net overlay generalizes to per-lane masks (fMask/fL/fH/fT): a
// fully masked force skips the driver like the scalar backends, a partial
// mask merges the forced lanes over the computed ones.
type bitslice struct {
	nl       *netlist.Netlist
	lanes    int
	laneMask uint64

	pl, ph, pt []uint64 // per-net planes: can-be-0, can-be-1, taint

	tmpL, tmpH, tmpT []uint64 // scratch for DFF next-state planes
	rstOne           []bool   // per-DFF reset value is One

	// The instruction stream, index = position in level order.
	op     []uint8 // logic.Op
	in0    []int32
	in1    []int32
	in2    []int32
	out    []int32
	ilevel []int32

	fanIdx    []int32 // CSR: net -> consuming instruction positions
	fan       []int32
	driverPos []int32 // net -> driving instruction position, or -1

	// Dirty-worklist state, as in the compiled backend.
	epoch      uint64
	queuedEp   []uint64 // per instruction: enqueued at this epoch
	forcedEp   []uint64 // per net: forced at this epoch
	buckets    [][]int32
	pending    []netlist.NetID // nets changed since the last Eval
	prevForced []netlist.NetID // nets forced by the previous Eval
	needFull   bool

	// Per-lane force overlay, stamped by forcedEp.
	fMask, fL, fH, fT []uint64

	// Per-lane machinery.
	active  uint64      // lanes whose DFF toggles are counted
	toggles []uint64    // per-lane accumulated DFF value transitions
	forces  []laneForce // staged per-lane forces for the next Eval
	forceIx map[netlist.NetID]int32
}

// laneForce is one net's per-lane force for a single Eval: the masked lanes
// take the given plane bits, the rest keep their driver.
type laneForce struct {
	id      netlist.NetID
	mask    uint64
	l, h, t uint64
}

func newBatchCore(nl *netlist.Netlist, lanes int) (*bitslice, error) {
	if lanes < 1 || lanes > BatchLanes {
		return nil, fmt.Errorf("sim: bitslice lanes %d out of range [1,%d]", lanes, BatchLanes)
	}
	lv, err := nl.Levelize()
	if err != nil {
		return nil, err
	}
	ng, nn := len(nl.Gates), nl.NumNets()
	c := &bitslice{
		nl:        nl,
		lanes:     lanes,
		laneMask:  ^uint64(0) >> (BatchLanes - lanes),
		pl:        make([]uint64, nn),
		ph:        make([]uint64, nn),
		pt:        make([]uint64, nn),
		tmpL:      make([]uint64, len(nl.DFFs)),
		tmpH:      make([]uint64, len(nl.DFFs)),
		tmpT:      make([]uint64, len(nl.DFFs)),
		rstOne:    make([]bool, len(nl.DFFs)),
		op:        make([]uint8, ng),
		in0:       make([]int32, ng),
		in1:       make([]int32, ng),
		in2:       make([]int32, ng),
		out:       make([]int32, ng),
		ilevel:    make([]int32, ng),
		driverPos: make([]int32, nn),
		queuedEp:  make([]uint64, ng),
		forcedEp:  make([]uint64, nn),
		buckets:   make([][]int32, lv.NumLevels()),
		fMask:     make([]uint64, nn),
		fL:        make([]uint64, nn),
		fH:        make([]uint64, nn),
		fT:        make([]uint64, nn),
		needFull:  true,
		toggles:   make([]uint64, BatchLanes),
		forceIx:   make(map[netlist.NetID]int32),
	}
	c.active = c.laneMask
	for i, d := range nl.DFFs {
		c.rstOne[i] = d.RstVal == logic.One
	}
	pos := make([]int32, ng) // gate index -> instruction position
	for p, gi := range lv.Order {
		g := &nl.Gates[gi]
		pos[gi] = int32(p)
		c.op[p] = uint8(g.Op)
		c.out[p] = int32(g.Out)
		c.ilevel[p] = lv.GateLevel[gi]
		switch g.Op.Arity() {
		case 1:
			c.in0[p] = int32(g.In[0])
		case 2:
			c.in0[p] = int32(g.In[0])
			c.in1[p] = int32(g.In[1])
		case 3:
			c.in0[p] = int32(g.In[0]) // select
			c.in1[p] = int32(g.In[1])
			c.in2[p] = int32(g.In[2])
		}
	}
	c.fanIdx = make([]int32, nn+1)
	copy(c.fanIdx, lv.FanoutIndex)
	c.fan = make([]int32, c.fanIdx[nn])
	for id := 0; id < nn; id++ {
		dst := c.fan[c.fanIdx[id]:c.fanIdx[id+1]]
		for i, gi := range lv.NetFanout(netlist.NetID(id)) {
			dst[i] = pos[gi]
		}
		if g := lv.DriverGate[id]; g >= 0 {
			c.driverPos[id] = pos[g]
		} else {
			c.driverPos[id] = -1
		}
	}
	return c, nil
}

// sigPlanes broadcasts one signal to full-width planes.
func sigPlanes(s logic.Sig) (l, h, t uint64) {
	switch s.V {
	case logic.Zero:
		l = ^uint64(0)
	case logic.One:
		h = ^uint64(0)
	default:
		l, h = ^uint64(0), ^uint64(0)
	}
	if s.T {
		t = ^uint64(0)
	}
	return
}

// laneSig reads one lane of a net.
func (c *bitslice) laneSig(id netlist.NetID, lane int) logic.Sig {
	l := c.pl[id] >> lane & 1
	h := c.ph[id] >> lane & 1
	t := c.pt[id] >> lane & 1
	var v logic.V
	switch {
	case l&h != 0:
		v = logic.X
	case h != 0:
		v = logic.One
	default:
		v = logic.Zero
	}
	return logic.Sig{V: v, T: t != 0}
}

// setPlanes writes a net's planes, maintaining the pending worklist
// exactly like the compiled backend's Set.
func (c *bitslice) setPlanes(id netlist.NetID, l, h, t uint64) {
	if c.pl[id] == l && c.ph[id] == h && c.pt[id] == t {
		return
	}
	c.pl[id], c.ph[id], c.pt[id] = l, h, t
	if !c.needFull {
		c.pending = append(c.pending, id)
	}
}

// setLane writes one lane of a net, leaving the others untouched.
func (c *bitslice) setLane(id netlist.NetID, lane int, s logic.Sig) {
	bit := uint64(1) << lane
	l, h, t := c.pl[id]&^bit, c.ph[id]&^bit, c.pt[id]&^bit
	switch s.V {
	case logic.Zero:
		l |= bit
	case logic.One:
		h |= bit
	default:
		l |= bit
		h |= bit
	}
	if s.T {
		t |= bit
	}
	c.setPlanes(id, l, h, t)
}

// InitX resets every lane of every net to untainted X, constants excepted.
func (c *bitslice) InitX() {
	for i := range c.pl {
		c.pl[i], c.ph[i], c.pt[i] = ^uint64(0), ^uint64(0), 0
	}
	c0, c1 := c.nl.Const0(), c.nl.Const1()
	c.pl[c0], c.ph[c0] = ^uint64(0), 0
	c.pl[c1], c.ph[c1] = 0, ^uint64(0)
	c.pending = c.pending[:0]
	c.needFull = true
}

// evalForces propagates values through the combinational logic of every
// lane under the given per-lane force overlay.
func (c *bitslice) evalForces(forces []laneForce) {
	c.epoch++
	ep := c.epoch
	for i := range forces {
		f := &forces[i]
		id := f.id
		c.forcedEp[id] = ep
		c.fMask[id] = f.mask
		c.fL[id], c.fH[id], c.fT[id] = f.l&f.mask, f.h&f.mask, f.t&f.mask
		c.setPlanes(id,
			c.pl[id]&^f.mask|c.fL[id],
			c.ph[id]&^f.mask|c.fH[id],
			c.pt[id]&^f.mask|c.fT[id])
	}
	if c.needFull {
		c.fullSweep(ep)
		c.needFull = false
		c.pending = c.pending[:0]
	} else {
		// A net forced last Eval but not this one reverts to whatever its
		// combinational driver computes (sourceless nets — inputs, DFF
		// outputs — simply hold their value, like in the scalar backends).
		for _, id := range c.prevForced {
			if c.forcedEp[id] != ep {
				if dp := c.driverPos[id]; dp >= 0 {
					c.enqueue(dp, ep)
				}
			}
		}
		// A partially masked force leaves its unforced lanes to the
		// driver: re-evaluate it even when no input changed, in case the
		// previous Eval forced different lanes of the same net.
		for i := range forces {
			if forces[i].mask&c.laneMask != c.laneMask {
				if dp := c.driverPos[forces[i].id]; dp >= 0 {
					c.enqueue(dp, ep)
				}
			}
		}
		for _, id := range c.pending {
			c.seed(id, ep)
		}
		c.pending = c.pending[:0]
		c.drain(ep)
	}
	c.prevForced = c.prevForced[:0]
	for i := range forces {
		c.prevForced = append(c.prevForced, forces[i].id)
	}
}

// enqueue marks one instruction dirty, once per epoch.
func (c *bitslice) enqueue(p int32, ep uint64) {
	if c.queuedEp[p] != ep {
		c.queuedEp[p] = ep
		l := c.ilevel[p]
		c.buckets[l] = append(c.buckets[l], p)
	}
}

// seed marks every consumer of a changed net dirty.
func (c *bitslice) seed(id netlist.NetID, ep uint64) {
	for _, p := range c.fan[c.fanIdx[id]:c.fanIdx[id+1]] {
		c.enqueue(p, ep)
	}
}

// drain evaluates the dirty instructions level by level; consumers always
// sit at strictly higher levels, so each bucket is complete when reached.
func (c *bitslice) drain(ep uint64) {
	for l := range c.buckets {
		b := c.buckets[l]
		for i := 0; i < len(b); i++ {
			c.step(b[i], ep)
		}
		c.buckets[l] = b[:0]
	}
}

// step re-evaluates one dirty instruction, merges any per-lane force over
// the computed planes, and propagates on actual change.
func (c *bitslice) step(p int32, ep uint64) {
	o := c.out[p]
	forced := c.forcedEp[o] == ep
	if forced && c.fMask[o]&c.laneMask == c.laneMask {
		return // every lane forced: the overlay value wins this Eval
	}
	l, h, t := c.evalGate(p)
	if forced {
		m := c.fMask[o]
		l = l&^m | c.fL[o]
		h = h&^m | c.fH[o]
		t = t&^m | c.fT[o]
	}
	if l != c.pl[o] || h != c.ph[o] || t != c.pt[o] {
		c.pl[o], c.ph[o], c.pt[o] = l, h, t
		c.seed(netlist.NetID(o), ep)
	}
}

// fullSweep evaluates the whole stream in level order, used for the first
// Eval and after InitX / DFF-state restores.
func (c *bitslice) fullSweep(ep uint64) {
	for p := range c.op {
		o := c.out[p]
		forced := c.forcedEp[o] == ep
		if forced && c.fMask[o]&c.laneMask == c.laneMask {
			continue
		}
		l, h, t := c.evalGate(int32(p))
		if forced {
			m := c.fMask[o]
			l = l&^m | c.fL[o]
			h = h&^m | c.fH[o]
			t = t&^m | c.fT[o]
		}
		c.pl[o], c.ph[o], c.pt[o] = l, h, t
	}
}

// Plane formulas. Value rails follow Kleene strong logic on the (L,H)
// encoding; taint rails implement the GLIFT rule: an output lane is tainted
// iff, holding untainted inputs to their possible values, some assignment
// of the tainted inputs changes the output. For AND, a tainted input leaks
// unless the other input is a definite controlling 0 — "other can be 1"
// (bH) widened by the other side's own taint (bT, which lets it range over
// {0,1}). OR is the dual with controlling 1. XOR always propagates taint
// (no controlling value). For MUX, a tainted select leaks iff the two data
// inputs can differ, comparing taint-widened rails (a tainted data lane can
// be either value).
func bsAnd(aL, aH, aT, bL, bH, bT uint64) (l, h, t uint64) {
	h = aH & bH
	l = aL | bL
	t = aT&(bT|bH) | bT&aH
	return
}

func bsOr(aL, aH, aT, bL, bH, bT uint64) (l, h, t uint64) {
	h = aH | bH
	l = aL & bL
	t = aT&(bT|bL) | bT&aL
	return
}

func bsXor(aL, aH, aT, bL, bH, bT uint64) (l, h, t uint64) {
	h = aH&bL | aL&bH
	l = aL&bL | aH&bH
	t = aT | bT
	return
}

func bsMux(sL, sH, sT, aL, aH, aT, bL, bH, bT uint64) (l, h, t uint64) {
	l = sL&aL | sH&bL
	h = sL&aH | sH&bH
	a0, a1 := aL|aT, aH|aT // taint-widened rails of the sel=0 input
	b0, b1 := bL|bT, bH|bT
	t = sL&aT | sH&bT | sT&(a0&b1|a1&b0)
	return
}

func (c *bitslice) evalGate(p int32) (l, h, t uint64) {
	switch logic.Op(c.op[p]) {
	case logic.Const0:
		return ^uint64(0), 0, 0
	case logic.Const1:
		return 0, ^uint64(0), 0
	case logic.Buf:
		a := c.in0[p]
		return c.pl[a], c.ph[a], c.pt[a]
	case logic.Not:
		a := c.in0[p]
		return c.ph[a], c.pl[a], c.pt[a]
	case logic.And:
		a, b := c.in0[p], c.in1[p]
		return bsAnd(c.pl[a], c.ph[a], c.pt[a], c.pl[b], c.ph[b], c.pt[b])
	case logic.Nand:
		a, b := c.in0[p], c.in1[p]
		l, h, t = bsAnd(c.pl[a], c.ph[a], c.pt[a], c.pl[b], c.ph[b], c.pt[b])
		return h, l, t
	case logic.Or:
		a, b := c.in0[p], c.in1[p]
		return bsOr(c.pl[a], c.ph[a], c.pt[a], c.pl[b], c.ph[b], c.pt[b])
	case logic.Nor:
		a, b := c.in0[p], c.in1[p]
		l, h, t = bsOr(c.pl[a], c.ph[a], c.pt[a], c.pl[b], c.ph[b], c.pt[b])
		return h, l, t
	case logic.Xor:
		a, b := c.in0[p], c.in1[p]
		return bsXor(c.pl[a], c.ph[a], c.pt[a], c.pl[b], c.ph[b], c.pt[b])
	case logic.Xnor:
		a, b := c.in0[p], c.in1[p]
		l, h, t = bsXor(c.pl[a], c.ph[a], c.pt[a], c.pl[b], c.ph[b], c.pt[b])
		return h, l, t
	default: // logic.Mux
		s, a, b := c.in0[p], c.in1[p], c.in2[p]
		return bsMux(c.pl[s], c.ph[s], c.pt[s],
			c.pl[a], c.ph[a], c.pt[a],
			c.pl[b], c.ph[b], c.pt[b])
	}
}

// clockPlanes commits flip-flop next states across all lanes; per-lane
// value-transition counts accumulate into c.toggles for lanes in c.active.
func (c *bitslice) clockPlanes() {
	dffs := c.nl.DFFs
	for i := range dffs {
		d := &dffs[i]
		hL, hH, hT := bsMux(c.pl[d.En], c.ph[d.En], c.pt[d.En],
			c.pl[d.Q], c.ph[d.Q], c.pt[d.Q],
			c.pl[d.D], c.ph[d.D], c.pt[d.D])
		var rL, rH uint64
		if c.rstOne[i] {
			rH = ^uint64(0)
		} else {
			rL = ^uint64(0)
		}
		c.tmpL[i], c.tmpH[i], c.tmpT[i] = bsMux(c.pl[d.Rst], c.ph[d.Rst], c.pt[d.Rst],
			hL, hH, hT, rL, rH, 0)
	}
	act := c.active & c.laneMask
	for i := range dffs {
		q := dffs[i].Q
		oL, oH, oT := c.pl[q], c.ph[q], c.pt[q]
		nL, nH, nT := c.tmpL[i], c.tmpH[i], c.tmpT[i]
		for w := ((oL ^ nL) | (oH ^ nH)) & act; w != 0; w &= w - 1 {
			c.toggles[bits.TrailingZeros64(w)]++
		}
		if oL != nL || oH != nH || oT != nT {
			c.pl[q], c.ph[q], c.pt[q] = nL, nH, nT
			if !c.needFull {
				c.pending = append(c.pending, q)
			}
		}
	}
}
