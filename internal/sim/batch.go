package sim

import (
	"repro/internal/logic"
	"repro/internal/netlist"
)

// BatchBackend evaluates one netlist across up to 64 independent lanes in
// lockstep: lane i of every three-plane word (see bitslice.go) is its own
// analysis context with its own inputs, forced-net overlay, flip-flop state
// and toggle counter. One Eval/Clock advances every lane at once, which is
// what the batched fault campaign (internal/fault) builds on.
//
// Lanes that finish early are retired via SetActive: retired lanes keep
// evaluating (their words ride along for free) but stop accruing toggle
// counts, and the host simply stops reading them. The per-lane protocol is
// the scalar Backend protocol per lane: stage Force calls, Eval, read nets,
// Clock.
type BatchBackend struct {
	c *bitslice
}

// NewBatchBackend constructs a batch evaluator with the given lane count
// (1..BatchLanes). All lanes start at untainted X (InitX applied).
func NewBatchBackend(nl *netlist.Netlist, lanes int) (*BatchBackend, error) {
	c, err := newBatchCore(nl, lanes)
	if err != nil {
		return nil, err
	}
	c.InitX()
	return &BatchBackend{c: c}, nil
}

// Lanes returns the configured lane count.
func (b *BatchBackend) Lanes() int { return b.c.lanes }

// LaneMask returns the mask with every configured lane set.
func (b *BatchBackend) LaneMask() uint64 { return b.c.laneMask }

// SetActive installs the active-lane retirement mask: only active lanes
// accrue toggle counts from Clock.
func (b *BatchBackend) SetActive(mask uint64) { b.c.active = mask & b.c.laneMask }

// InitX resets every lane of every net to untainted X (constants excepted)
// and zeroes the per-lane toggle counters.
func (b *BatchBackend) InitX() {
	b.c.InitX()
	for i := range b.c.toggles {
		b.c.toggles[i] = 0
	}
}

// GetLane reads one lane of a net (valid after Eval).
func (b *BatchBackend) GetLane(lane int, id netlist.NetID) logic.Sig {
	return b.c.laneSig(id, lane)
}

// SetLane drives one lane of a net, leaving the other lanes untouched.
func (b *BatchBackend) SetLane(lane int, id netlist.NetID, s logic.Sig) {
	b.c.setLane(id, lane, s)
}

// SetAll drives every lane of a net to the same signal.
func (b *BatchBackend) SetAll(id netlist.NetID, s logic.Sig) {
	l, h, t := sigPlanes(s)
	b.c.setPlanes(id, l, h, t)
}

// GetLaneWord assembles a word from one lane of the given nets, LSB first.
func (b *BatchBackend) GetLaneWord(lane int, nets []netlist.NetID) Word {
	var w Word
	for i, id := range nets {
		s := b.c.laneSig(id, lane)
		bit := uint16(1) << i
		switch s.V {
		case logic.One:
			w.Val |= bit
		case logic.X:
			w.XM |= bit
		}
		if s.T {
			w.TT |= bit
		}
	}
	return w
}

// SetLaneWord drives one lane of the given nets from a word, LSB first.
func (b *BatchBackend) SetLaneWord(lane int, nets []netlist.NetID, w Word) {
	for i, id := range nets {
		b.c.setLane(id, lane, w.Sig(i))
	}
}

// Force stages a forced net for one lane of the next Eval. Forces on the
// same net across lanes coalesce into one overlay entry; staged forces are
// consumed (and cleared) by the next Eval call.
func (b *BatchBackend) Force(lane int, id netlist.NetID, s logic.Sig) {
	c := b.c
	ix, ok := c.forceIx[id]
	if !ok {
		ix = int32(len(c.forces))
		c.forces = append(c.forces, laneForce{id: id})
		c.forceIx[id] = ix
	}
	f := &c.forces[ix]
	bit := uint64(1) << lane
	f.mask |= bit
	// Re-forcing the same lane replaces the earlier value (map semantics).
	f.l &^= bit
	f.h &^= bit
	f.t &^= bit
	switch s.V {
	case logic.Zero:
		f.l |= bit
	case logic.One:
		f.h |= bit
	default:
		f.l |= bit
		f.h |= bit
	}
	if s.T {
		f.t |= bit
	}
}

// Eval propagates values through the combinational logic of every lane,
// applying (then clearing) the staged Force overlay.
func (b *BatchBackend) Eval() {
	c := b.c
	c.evalForces(c.forces)
	for i := range c.forces {
		delete(c.forceIx, c.forces[i].id)
	}
	c.forces = c.forces[:0]
}

// Clock commits flip-flop next states on every lane; active lanes accrue
// per-lane toggle counts (LaneToggles).
func (b *BatchBackend) Clock() { b.c.clockPlanes() }

// LaneToggles returns the accumulated flip-flop value transitions of one
// lane (counted only while the lane was active).
func (b *BatchBackend) LaneToggles(lane int) uint64 { return b.c.toggles[lane] }

// LaneDFFState captures one lane's flip-flop outputs.
func (b *BatchBackend) LaneDFFState(lane int) []logic.Packed {
	c := b.c
	out := make([]logic.Packed, len(c.nl.DFFs))
	for i, d := range c.nl.DFFs {
		out[i] = logic.Pack(c.laneSig(d.Q, lane))
	}
	return out
}

// RestoreLaneDFFState installs previously captured flip-flop outputs into
// one lane. The host must Eval before reading any combinational net; the
// next Eval runs a full sweep.
func (b *BatchBackend) RestoreLaneDFFState(lane int, st []logic.Packed) {
	c := b.c
	c.needFull = true
	c.pending = c.pending[:0]
	for i, d := range c.nl.DFFs {
		c.setLane(d.Q, lane, logic.Unpack(st[i]))
	}
}
