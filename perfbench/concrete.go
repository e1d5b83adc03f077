package main

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mcu"
	"repro/internal/sim"
)

// Concrete execution the way run430 does it: a gate-level system with
// zeroed RAM runs a fixed cycle budget while P1IN carries LFSR samples.
// The samples change at instruction boundaries so that the behavioural
// machine in internal/isa, run on the same samples, is a cycle-exact
// reference for the final registers and RAM.

// portBus is a flat memory whose P1IN word reads the current port sample.
type portBus struct {
	isa.FlatMem
	in uint16
}

func (b *portBus) LoadWord(addr uint16) uint16 {
	if addr&^1 == isa.AddrP1IN {
		return b.in
	}
	return b.FlatMem.LoadWord(addr)
}

func (b *portBus) LoadByte(addr uint16) uint8 {
	switch addr {
	case isa.AddrP1IN:
		return uint8(b.in)
	case isa.AddrP1IN + 1:
		return uint8(b.in >> 8)
	}
	return b.FlatMem.LoadByte(addr)
}

// concreteRun is one prepared run: the per-cycle port samples and the
// behavioural machine's final state after the same cycles.
type concreteRun struct {
	prog  *program
	ports []uint16 // P1IN per cycle after the reset sequence
	ref   *isa.Machine
	bus   *portBus
}

// prepareConcrete runs the behavioural machine for at least budget cycles,
// drawing one port sample per instruction.
func prepareConcrete(p *program, l *lfsr, budget uint64) (*concreteRun, error) {
	bus := &portBus{}
	p.img.Place(bus.StoreWord)
	bus.StoreWord(isa.ResetVec, p.img.Entry)
	m := isa.NewMachine(bus)
	m.Reset()
	var ports []uint16
	for m.Cycles < budget {
		bus.in = l.next()
		n, err := m.Step()
		if err != nil {
			return nil, fmt.Errorf("%s: reference machine: %w", p.name, err)
		}
		for i := 0; i < n; i++ {
			ports = append(ports, bus.in)
		}
	}
	return &concreteRun{prog: p, ports: ports, ref: m, bus: bus}, nil
}

// run executes the gate-level system and returns the cycles it simulated,
// with an error if it disagrees with the reference.
func (r *concreteRun) run(d *mcu.Design) (uint64, error) {
	sys, err := mcu.NewSystem(d)
	if err != nil {
		return 0, err
	}
	sys.RAM.Fill(sys.RAM.Base(), make([]byte, sys.RAM.Size()))
	r.prog.img.Place(func(a, w uint16) { sys.ROM.StoreWord(a, sim.ConcreteWord(w)) })
	sys.SetResetVector(r.prog.img.Entry)
	sys.PowerOn()
	sys.Step() // the reset-vector fetch
	for _, v := range r.ports {
		sys.SetPortIn(0, sim.ConcreteWord(v))
		ci := sys.EvalCycle(nil)
		if !ci.PmemOK {
			return sys.Cycle, fmt.Errorf("%s: pc unknown at cycle %d", r.prog.name, sys.Cycle)
		}
		sys.Commit(ci)
	}
	return sys.Cycle, r.compare(sys)
}

// compare checks the gate-level machine against the reference at the
// final instruction boundary: cycle count, registers and all of RAM.
func (r *concreteRun) compare(sys *mcu.System) error {
	name := r.prog.name
	if sys.Cycle != r.ref.Cycles {
		return fmt.Errorf("%s: %d cycles, reference %d", name, sys.Cycle, r.ref.Cycles)
	}
	ci := sys.EvalCycle(nil)
	if !ci.StateOK || ci.State != mcu.StFetch {
		return fmt.Errorf("%s: not at an instruction boundary after %d cycles", name, sys.Cycle)
	}
	for reg := isa.Reg(0); reg < 16; reg++ {
		if reg == isa.CG {
			continue
		}
		w := sys.RegWord(reg)
		if !w.Concrete() || w.Val != r.ref.R[reg] {
			return fmt.Errorf("%s: %s = %s, reference %#04x", name, reg, w, r.ref.R[reg])
		}
	}
	for a := int(isa.RAMStart); a < int(isa.RAMEnd); a++ {
		w := sys.RAM.LoadByte(uint16(a))
		if !w.Concrete() || uint8(w.Val) != r.bus.FlatMem[a] {
			return fmt.Errorf("%s: RAM[%#04x] = %s, reference %#02x", name, a, w, r.bus.FlatMem[a])
		}
	}
	return nil
}
