package rv32

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/logic"
	"repro/internal/mcu"
	"repro/internal/synth"
)

var testDesign = Shared()

func TestNetlistShape(t *testing.T) {
	st := testDesign.NL.ComputeStats()
	if st.DFFs < 400 {
		t.Fatalf("suspiciously few flip-flops: %d", st.DFFs)
	}
	if st.Gates < 2000 {
		t.Fatalf("suspiciously few gates: %d", st.Gates)
	}
	t.Logf("netlist: %d gates, %d DFFs, %d nets, %d levels", st.Gates, st.DFFs, st.Nets, st.Levels)
}

// reg32 reads a 32-bit architectural register bit by bit (System.GetWord
// packs into 16-bit sim.Words and would drop the high half).
func reg32(s *mcu.System, nets synth.Word) (uint32, bool) {
	var v uint32
	for i, id := range nets {
		switch sg := s.GetSig(id); sg.V {
		case logic.One:
			v |= 1 << uint(i)
		case logic.X:
			return 0, false
		}
	}
	return v, true
}

// newConformanceSystem prepares a gate-level system for concrete execution:
// zero-filled RAM (matching the oracle's flat memory) and the image in ROM.
func newConformanceSystem(t *testing.T, img *asm.Image) *mcu.System {
	t.Helper()
	s, err := mcu.NewSystem(testDesign)
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, s.RAM.Size())
	s.RAM.Fill(s.RAM.Base(), zeros)
	s.LoadImage(img)
	return s
}

// refMachine builds the interpreter twin for the same image.
func refMachine(img *asm.Image) *Machine {
	m := NewMachine()
	img.Place(m.StoreHalf)
	m.StoreHalf(ResetVec, img.Entry)
	m.Reset()
	return m
}

// compareState checks architectural state equality at an instruction
// boundary (gates must be sitting in StFetch).
func compareState(t *testing.T, s *mcu.System, m *Machine, tag string) {
	t.Helper()
	ci := s.EvalCycle(nil)
	if !ci.StateOK || ci.State != StFetch {
		t.Fatalf("%s: gates not at fetch (state=%d ok=%v)", tag, ci.State, ci.StateOK)
	}
	pc := s.GetWord(s.D.PC)
	if !pc.Concrete() || pc.Val != m.PC {
		t.Fatalf("%s: gate pc %s, oracle %#04x", tag, pc, m.PC)
	}
	for r := 1; r < 16; r++ {
		v, ok := reg32(s, testDesign.Regs[r])
		if !ok {
			t.Fatalf("%s: x%d not concrete", tag, r)
		}
		if v != m.X[r] {
			t.Fatalf("%s: x%d = %#08x, oracle has %#08x", tag, r, v, m.X[r])
		}
	}
}

// compareRAM checks the whole data memory against the oracle.
func compareRAM(t *testing.T, s *mcu.System, m *Machine, tag string) {
	t.Helper()
	for a := uint16(RAMStart); a < RAMEnd; a += 2 {
		w := s.RAM.LoadWord(a)
		if !w.Concrete() {
			t.Fatalf("%s: RAM[%#04x] not concrete: %s", tag, a, w)
		}
		if w.Val != m.LoadHalf(a) {
			t.Fatalf("%s: RAM[%#04x] = %#04x, oracle has %#04x", tag, a, w.Val, m.LoadHalf(a))
		}
	}
}

// runLockstep locksteps gates and oracle at instruction boundaries, then
// byte-compares data memory once the program parks.
func runLockstep(t *testing.T, src string, maxInsns int) {
	t.Helper()
	img, err := AssembleSource(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	s := newConformanceSystem(t, img)
	m := refMachine(img)
	s.PowerOn()
	s.Step() // StReset: the reset-vector fetch
	compareState(t, s, m, "after reset")
	for i := 0; i < maxInsns; i++ {
		pc := m.PC
		err := m.Step()
		parked := errors.Is(err, ErrParked)
		if err != nil && !parked {
			t.Fatalf("oracle at %#04x: %v", pc, err)
		}
		s.Step() // StFetch
		s.Step() // StExec
		tag := fmt.Sprintf("insn %d @%#04x", i, pc)
		compareState(t, s, m, tag)
		// Oracle cycles don't advance on the parked step; gates still ran two.
		if !parked && s.Cycle != m.Cycles+2 {
			t.Fatalf("%s: cycle divergence: gates %d, oracle %d (+2 reset)", tag, s.Cycle, m.Cycles)
		}
		if parked {
			compareRAM(t, s, m, tag)
			return
		}
	}
	t.Fatalf("did not park within %d instructions", maxInsns)
}

// TestConformanceHandwritten exercises every instruction of the subset with
// directed corner cases.
func TestConformanceHandwritten(t *testing.T) {
	cases := map[string]string{
		"alu_imm": `
start:  addi x1, x0, 100
        addi x2, x1, -49
        slti x3, x2, 52
        slti x4, x2, -1
        sltiu x5, x2, 52
        sltiu x6, x2, -1     # -1 is 0xfff...f unsigned: everything is below
        xori x7, x1, 0x5a
        ori  x8, x1, 0x0f
        andi x9, x1, 0x3c
done:   j done
`,
		"alu_reg": `
start:  li x1, 7
        li x2, -3
        add x3, x1, x2
        sub x4, x1, x2
        slt x5, x2, x1       # signed: -3 < 7
        slt x6, x1, x2
        sltu x7, x2, x1      # unsigned: 0xfffffffd < 7 is false
        sltu x8, x1, x2
        xor x9, x1, x2
        or  x10, x1, x2
        and x11, x1, x2
done:   j done
`,
		"lui_auipc": `
start:  lui x1, 0xabcde
        lui x2, 1
        auipc x3, 0
        auipc x4, 0x10
        li x5, 0x12345       # expands to lui+addi
        li x6, -70000
done:   j done
`,
		"mem": `
start:  li x8, 0x0800
        li x1, -2
        sh x1, 0(x8)
        sh x1, 6(x8)
        lh x2, 0(x8)         # sign-extends 0xfffe
        lhu x3, 0(x8)        # zero-extends
        li x4, 0x7fff
        sh x4, 2(x8)
        lh x5, 2(x8)
        sh x5, 0x40(x8)
        lhu x6, 0x40(x8)
done:   j done
`,
		"branches": `
start:  li x1, 5
        li x2, -5
        li x10, 0
        beq x1, x1, t1
        addi x10, x10, 1     # must be skipped
t1:     bne x1, x2, t2
        addi x10, x10, 2
t2:     blt x2, x1, t3       # signed taken
        addi x10, x10, 4
t3:     bge x1, x2, t4
        addi x10, x10, 8
t4:     bltu x1, x2, t5      # unsigned: 5 < 0xfff..b taken
        addi x10, x10, 16
t5:     bgeu x2, x1, t6
        addi x10, x10, 32
t6:     beq x1, x2, t7       # not taken
        addi x11, x11, 1
t7:     blt x1, x2, t8       # not taken
        addi x11, x11, 2
t8:     nop
done:   j done
`,
		"jal_jalr": `
start:  jal x1, f1
        mv x10, x2
        j done
f1:     li x2, 42
        jalr x3, x1, 0       # return, linking x3
done:   j done
`,
		"call_chain": `
start:  li x2, 0x0f00        # stackish pointer (unused, just state)
        jal x1, outer
        li x12, 1
done:   j done
outer:  li x5, 10
        mv x6, x1
        jal x1, inner
        mv x1, x6
        ret
inner:  addi x5, x5, 5
        ret
`,
		"x0_writes": `
start:  li x1, 7
        addi x0, x1, 1       # writes to x0 are dropped
        add x0, x1, x1
        lui x0, 5
        mv x2, x0
done:   j done
`,
		"invalid_parks": `
start:  li x1, 3
        .word 0x0007         # unrecognized opcode: parks
        .word 0x0000
        li x1, 99            # never reached
`,
		"wrap16": `
start:  li x1, 0x7ff0
        lui x2, 0xfffff      # -4096
        add x3, x1, x2
        li x8, 0x0ffe        # last RAM word
        sh x1, 0(x8)
        lh x4, 0(x8)
done:   j done
`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) { runLockstep(t, src, 64) })
	}
}

// TestConformanceRandomCorpus locksteps the gate core against the oracle
// over a seeded corpus of generated programs: random ALU/memory straight
// lines threaded through forward branches — the rv32 analogue of the
// msp430 conformance matrix.
func TestConformanceRandomCorpus(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src, insns := generateProgram(rand.New(rand.NewSource(seed)))
			t.Logf("program:\n%s", src)
			runLockstep(t, src, insns+8)
		})
	}
}

// generateProgram emits a random terminating program: blocks of ALU and
// memory operations linked by forward branches (always toward the end, so
// every path terminates at the parking jump).
func generateProgram(rng *rand.Rand) (string, int) {
	var sb strings.Builder
	insns := 0
	emit := func(format string, args ...interface{}) {
		fmt.Fprintf(&sb, "        "+format+"\n", args...)
		insns++
	}
	sb.WriteString("start:\n")
	// x8 points into RAM; x1..x6 hold random data.
	emit("li x8, %#x", 0x0800+rng.Intn(0x300)*2)
	for r := 1; r <= 6; r++ {
		emit("li x%d, %d", r, int32(rng.Uint32()))
		insns++ // li of a large value expands to two instructions
	}
	aluImm := []string{"addi", "slti", "sltiu", "xori", "ori", "andi"}
	aluReg := []string{"add", "sub", "slt", "sltu", "xor", "or", "and"}
	branches := []string{"beq", "bne", "blt", "bge", "bltu", "bgeu"}
	reg := func() int { return 1 + rng.Intn(6) }
	blocks := 4 + rng.Intn(4)
	for blk := 0; blk < blocks; blk++ {
		if blk > 0 {
			fmt.Fprintf(&sb, "blk%d:\n", blk)
		}
		for n := 3 + rng.Intn(6); n > 0; n-- {
			switch rng.Intn(4) {
			case 0:
				emit("%s x%d, x%d, %d", aluImm[rng.Intn(len(aluImm))], reg(), reg(), rng.Intn(4096)-2048)
			case 1:
				emit("%s x%d, x%d, x%d", aluReg[rng.Intn(len(aluReg))], reg(), reg(), reg())
			case 2:
				emit("sh x%d, %d(x8)", reg(), rng.Intn(0x80)*2)
			case 3:
				if rng.Intn(2) == 0 {
					emit("lh x%d, %d(x8)", reg(), rng.Intn(0x80)*2)
				} else {
					emit("lhu x%d, %d(x8)", reg(), rng.Intn(0x80)*2)
				}
			}
		}
		// Branch forward over the rest of this round's blocks sometimes.
		if blk+1 < blocks && rng.Intn(2) == 0 {
			emit("%s x%d, x%d, blk%d", branches[rng.Intn(len(branches))], reg(), reg(), blk+1+rng.Intn(blocks-blk))
		}
	}
	fmt.Fprintf(&sb, "blk%d:\n", blocks)
	sb.WriteString("done:   j done\n")
	insns++
	return sb.String(), insns * 2
}
