// Package synth provides structural synthesis helpers for building
// gate-level designs on top of the netlist IR: multi-bit words, adders,
// comparators, multiplexer trees, decoders and registers. It is the
// in-repo substitute for the EDA synthesis flow the paper used to obtain a
// processor netlist (see DESIGN.md); the microcontroller in internal/mcu is
// constructed entirely with these builders.
package synth

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Word is a multi-bit signal bundle, least-significant bit first.
type Word []netlist.NetID

// Builder creates gates in a netlist with hierarchical, unique net names.
type Builder struct {
	N      *netlist.Netlist
	prefix string
	seq    *int
}

// NewBuilder wraps a netlist.
func NewBuilder(n *netlist.Netlist) *Builder {
	return &Builder{N: n, seq: new(int)}
}

// Scope returns a builder whose auto-generated and named nets are prefixed
// with name, giving the flat netlist a readable hierarchy.
func (b *Builder) Scope(name string) *Builder {
	p := name
	if b.prefix != "" {
		p = b.prefix + "." + name
	}
	return &Builder{N: b.N, prefix: p, seq: b.seq}
}

func (b *Builder) fresh(kind string) netlist.NetID {
	*b.seq++
	if b.prefix == "" {
		return b.N.NewNet(fmt.Sprintf("%s_%d", kind, *b.seq))
	}
	return b.N.NewNet(fmt.Sprintf("%s.%s_%d", b.prefix, kind, *b.seq))
}

// Named creates a net with an explicit (scoped) name; used for probe nets
// the analysis needs to find, such as "branch_taken".
func (b *Builder) Named(name string) netlist.NetID {
	if b.prefix != "" {
		name = b.prefix + "." + name
	}
	return b.N.NewNet(name)
}

// Low returns the constant-0 net; High the constant-1 net.
func (b *Builder) Low() netlist.NetID  { return b.N.Const0() }
func (b *Builder) High() netlist.NetID { return b.N.Const1() }

// gate creates an auto-named output net driven by op over the inputs.
func (b *Builder) gate(op logic.Op, in ...netlist.NetID) netlist.NetID {
	out := b.fresh(op.String())
	b.N.AddGate(op, out, in...)
	return out
}

// Single-gate helpers.
func (b *Builder) Not(a netlist.NetID) netlist.NetID         { return b.gate(logic.Not, a) }
func (b *Builder) Buf(a netlist.NetID) netlist.NetID         { return b.gate(logic.Buf, a) }
func (b *Builder) And(a, c netlist.NetID) netlist.NetID      { return b.gate(logic.And, a, c) }
func (b *Builder) Or(a, c netlist.NetID) netlist.NetID       { return b.gate(logic.Or, a, c) }
func (b *Builder) Nand(a, c netlist.NetID) netlist.NetID     { return b.gate(logic.Nand, a, c) }
func (b *Builder) Nor(a, c netlist.NetID) netlist.NetID      { return b.gate(logic.Nor, a, c) }
func (b *Builder) Xor(a, c netlist.NetID) netlist.NetID      { return b.gate(logic.Xor, a, c) }
func (b *Builder) Xnor(a, c netlist.NetID) netlist.NetID     { return b.gate(logic.Xnor, a, c) }
func (b *Builder) Mux(s, a0, a1 netlist.NetID) netlist.NetID { return b.gate(logic.Mux, s, a0, a1) }

// BufNamed drives a named probe net from an existing net.
func (b *Builder) BufNamed(name string, a netlist.NetID) netlist.NetID {
	out := b.Named(name)
	b.N.AddGate(logic.Buf, out, a)
	return out
}

// AndN reduces any number of nets with a balanced AND tree.
func (b *Builder) AndN(in ...netlist.NetID) netlist.NetID { return b.reduce(logic.And, in) }

// OrN reduces any number of nets with a balanced OR tree.
func (b *Builder) OrN(in ...netlist.NetID) netlist.NetID { return b.reduce(logic.Or, in) }

func (b *Builder) reduce(op logic.Op, in []netlist.NetID) netlist.NetID {
	switch len(in) {
	case 0:
		if op == logic.And {
			return b.High()
		}
		return b.Low()
	case 1:
		return in[0]
	}
	mid := len(in) / 2
	return b.gate(op, b.reduce(op, in[:mid]), b.reduce(op, in[mid:]))
}

// Const returns a width-bit word holding val, built from the constant nets.
func (b *Builder) Const(width int, val uint64) Word {
	w := make(Word, width)
	for i := range w {
		if val>>uint(i)&1 == 1 {
			w[i] = b.High()
		} else {
			w[i] = b.Low()
		}
	}
	return w
}

// InputWord declares width primary inputs named name0..name<width-1>.
func (b *Builder) InputWord(name string, width int) Word {
	w := make(Word, width)
	for i := range w {
		w[i] = b.N.AddInput(fmt.Sprintf("%s%d", name, i))
	}
	return w
}

// OutputWord declares the word's nets as primary outputs name0...
func (b *Builder) OutputWord(name string, w Word) {
	for i, id := range w {
		b.N.AddOutput(fmt.Sprintf("%s%d", name, i), id)
	}
}

// NamedWord creates width fresh nets named name0.. under the scope; used
// for multi-bit probe points.
func (b *Builder) NamedWord(name string, width int) Word {
	w := make(Word, width)
	for i := range w {
		w[i] = b.Named(fmt.Sprintf("%s%d", name, i))
	}
	return w
}

// Bitwise word operations (operands must have equal width).
func (b *Builder) NotW(a Word) Word    { return b.mapW(logic.Not, a, nil) }
func (b *Builder) AndW(a, c Word) Word { return b.mapW(logic.And, a, c) }
func (b *Builder) OrW(a, c Word) Word  { return b.mapW(logic.Or, a, c) }
func (b *Builder) XorW(a, c Word) Word { return b.mapW(logic.Xor, a, c) }

func (b *Builder) mapW(op logic.Op, a, c Word) Word {
	out := make(Word, len(a))
	for i := range a {
		if c == nil {
			out[i] = b.gate(op, a[i])
		} else {
			if len(c) != len(a) {
				panic("synth: width mismatch")
			}
			out[i] = b.gate(op, a[i], c[i])
		}
	}
	return out
}

// MuxW selects between two equal-width words: sel=0 -> a0, sel=1 -> a1.
func (b *Builder) MuxW(sel netlist.NetID, a0, a1 Word) Word {
	if len(a0) != len(a1) {
		panic("synth: mux width mismatch")
	}
	out := make(Word, len(a0))
	for i := range a0 {
		out[i] = b.Mux(sel, a0[i], a1[i])
	}
	return out
}

// MuxTree selects opts[sel] where sel is an LSB-first select word and
// len(opts) == 1<<len(sel).
func (b *Builder) MuxTree(sel Word, opts []Word) Word {
	if len(opts) != 1<<uint(len(sel)) {
		panic(fmt.Sprintf("synth: mux tree wants %d options, got %d", 1<<uint(len(sel)), len(opts)))
	}
	if len(sel) == 0 {
		return opts[0]
	}
	msb := sel[len(sel)-1]
	half := len(opts) / 2
	lo := b.MuxTree(sel[:len(sel)-1], opts[:half])
	hi := b.MuxTree(sel[:len(sel)-1], opts[half:])
	return b.MuxW(msb, lo, hi)
}

// Add builds a ripple-carry adder: sum = a + c + cin, returning the carry
// out of the top bit and the carry into the top bit (needed for overflow).
func (b *Builder) Add(a, c Word, cin netlist.NetID) (sum Word, cout, cpen netlist.NetID) {
	if len(a) != len(c) {
		panic("synth: adder width mismatch")
	}
	sum = make(Word, len(a))
	carry := cin
	cpen = cin
	for i := range a {
		axc := b.Xor(a[i], c[i])
		sum[i] = b.Xor(axc, carry)
		gen := b.And(a[i], c[i])
		prop := b.And(axc, carry)
		cpen = carry
		carry = b.Or(gen, prop)
	}
	return sum, carry, cpen
}

// AddFull builds a ripple-carry adder returning the full carry vector:
// carries[i] is the carry out of bit i. This lets byte-mode datapaths pick
// the carry out of bit 7 and overflow logic pick the carry into the MSB.
func (b *Builder) AddFull(a, c Word, cin netlist.NetID) (sum, carries Word) {
	if len(a) != len(c) {
		panic("synth: adder width mismatch")
	}
	sum = make(Word, len(a))
	carries = make(Word, len(a))
	carry := cin
	for i := range a {
		axc := b.Xor(a[i], c[i])
		sum[i] = b.Xor(axc, carry)
		gen := b.And(a[i], c[i])
		prop := b.And(axc, carry)
		carry = b.Or(gen, prop)
		carries[i] = carry
	}
	return sum, carries
}

// Inc returns a+1 (no carry out).
func (b *Builder) Inc(a Word) Word {
	s, _, _ := b.Add(a, b.Const(len(a), 0), b.High())
	return s
}

// AddConst returns a+k (no carry out).
func (b *Builder) AddConst(a Word, k uint64) Word {
	s, _, _ := b.Add(a, b.Const(len(a), k), b.Low())
	return s
}

// EqConst compares a word against a constant, producing a single net.
func (b *Builder) EqConst(a Word, v uint64) netlist.NetID {
	terms := make([]netlist.NetID, len(a))
	for i := range a {
		if v>>uint(i)&1 == 1 {
			terms[i] = a[i]
		} else {
			terms[i] = b.Not(a[i])
		}
	}
	return b.AndN(terms...)
}

// EqW compares two equal-width words.
func (b *Builder) EqW(a, c Word) netlist.NetID {
	terms := make([]netlist.NetID, len(a))
	for i := range a {
		terms[i] = b.Xnor(a[i], c[i])
	}
	return b.AndN(terms...)
}

// Decode produces the one-hot decoding of sel (LSB first): out[i] is high
// when sel == i.
func (b *Builder) Decode(sel Word) []netlist.NetID {
	n := 1 << uint(len(sel))
	out := make([]netlist.NetID, n)
	for i := 0; i < n; i++ {
		out[i] = b.EqConst(sel, uint64(i))
	}
	return out
}

// OrReduce ORs all bits of a word.
func (b *Builder) OrReduce(w Word) netlist.NetID { return b.OrN(w...) }

// IsZero is high when every bit of w is 0.
func (b *Builder) IsZero(w Word) netlist.NetID { return b.Not(b.OrReduce(w)) }

// Register creates a bank of flip-flops named name0.. loading d when en is
// high, resetting to the bits of rstVal when rst is high. It returns the Q
// word.
func (b *Builder) Register(name string, d Word, rst, en netlist.NetID, rstVal uint64) Word {
	q := b.NamedWord(name, len(d))
	for i := range d {
		b.N.AddDFF(q[i], d[i], rst, en, logic.FromBool(rstVal>>uint(i)&1 == 1))
	}
	return q
}

// RegisterLoop creates a register whose D input is wired up later (for
// feedback paths): it returns both Q and the D nets to be driven by the
// caller via Drive.
func (b *Builder) RegisterLoop(name string, width int, rst, en netlist.NetID, rstVal uint64) (q, d Word) {
	q = b.NamedWord(name, width)
	d = b.NamedWord(name+"_d", width)
	for i := 0; i < width; i++ {
		b.N.AddDFF(q[i], d[i], rst, en, logic.FromBool(rstVal>>uint(i)&1 == 1))
	}
	return q, d
}

// Drive connects each target net (previously created undriven, e.g. by
// RegisterLoop or NamedWord) to its source via a buffer.
func (b *Builder) Drive(target, source Word) {
	if len(target) != len(source) {
		panic("synth: drive width mismatch")
	}
	for i := range target {
		b.N.AddGate(logic.Buf, target[i], source[i])
	}
}

// DriveBit connects a single undriven named net to a source.
func (b *Builder) DriveBit(target, source netlist.NetID) {
	b.N.AddGate(logic.Buf, target, source)
}

// ZeroExtend widens w to width bits with constant zeros (pure wiring).
func (b *Builder) ZeroExtend(w Word, width int) Word {
	out := make(Word, width)
	copy(out, w)
	for i := len(w); i < width; i++ {
		out[i] = b.Low()
	}
	return out
}

// SignExtend widens w to width bits by replicating its MSB (pure wiring).
func SignExtend(w Word, width int) Word {
	out := make(Word, width)
	copy(out, w)
	for i := len(w); i < width; i++ {
		out[i] = w[len(w)-1]
	}
	return out
}

// Slice returns bits [lo,hi) of a word (pure wiring).
func Slice(w Word, lo, hi int) Word { return w[lo:hi:hi] }

// Cat concatenates words, first argument least significant (pure wiring).
func Cat(ws ...Word) Word {
	var out Word
	for _, w := range ws {
		out = append(out, w...)
	}
	return out
}

// ShiftLeft1 returns w<<1 with fill shifted into bit 0 (pure wiring).
func ShiftLeft1(w Word, fill netlist.NetID) Word {
	out := make(Word, len(w))
	out[0] = fill
	copy(out[1:], w[:len(w)-1])
	return out
}

// ShiftRight1 returns w>>1 with fill shifted into the MSB (pure wiring).
func ShiftRight1(w Word, fill netlist.NetID) Word {
	out := make(Word, len(w))
	copy(out, w[1:])
	out[len(w)-1] = fill
	return out
}
