// Package fault is a gate-level fault-injection harness for the analysis
// runtime: it corrupts a system under test — stuck-at flip-flops in the
// netlist, spurious unknown/tainted values on input ports, flipped or
// unknown ROM words — and re-runs the concrete simulator or the symbolic
// checker on the damaged system.
//
// Its purpose is to exercise the fail-closed contract, not to model real
// silicon defects: under every injected fault the checker must report a
// violation or an Incomplete/InternalError verdict, never a clean
// "verified". A fault that slips through as Verified would mean the
// sufficient-condition checks have a blind spot.
package fault

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/asm"
	"repro/internal/glift"
	"repro/internal/logic"
	"repro/internal/mcu"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/synth"
)

// Fault is one injected defect. Implementations mutate either the netlist
// of a freshly built design (stuck-at faults) or the constructed system's
// environment (port and ROM faults); the harness applies both phases in
// order and never touches the shared design singleton.
type Fault interface {
	// Describe renders the fault for logs and test names.
	Describe() string
	// rewritesNetlist reports whether the fault needs a private mcu.Build()
	// (netlist mutations must never reach glift.SharedDesign()).
	rewritesNetlist() bool
	// applyDesign mutates the freshly built design, before the simulator is
	// constructed. No-op for system-level faults.
	applyDesign(d *mcu.Design) error
	// applySystem mutates the constructed system (ports, ROM contents),
	// after program placement and policy taints.
	applySystem(sys *mcu.System) error
}

// StuckFF pins one flip-flop's output to a constant: its D input is rewired
// to the constant, reset is disconnected and the enable is forced, so the
// value latches on the first clock edge and never changes again.
type StuckFF struct {
	// FF names the flip-flop by its Q net: either a convenience form
	// "pc:5", "sr:3", "r14:11", "wdtcnt:0", "wdtctl:2" (register:bit), or a
	// raw netlist net name.
	FF string
	// Value is the stuck level, logic.Zero or logic.One.
	Value logic.V
}

func (f StuckFF) Describe() string      { return fmt.Sprintf("stuck-at-%s flip-flop %s", f.Value, f.FF) }
func (f StuckFF) rewritesNetlist() bool { return true }

func (f StuckFF) qNet(d *mcu.Design) (netlist.NetID, error) {
	name := f.FF
	if i := strings.IndexByte(name, ':'); i >= 0 {
		base, bitStr := name[:i], name[i+1:]
		bit, err := strconv.Atoi(bitStr)
		if err != nil {
			return 0, fmt.Errorf("fault: bad bit index in %q", name)
		}
		var w synth.Word
		switch {
		case base == "pc":
			w = d.PC
		case base == "sr":
			w = d.SR
		case base == "wdtcnt":
			w = d.WdtCnt
		case base == "wdtctl":
			w = d.WdtCtl
		case strings.HasPrefix(base, "r"):
			r, err := strconv.Atoi(base[1:])
			if err != nil || r < 0 || r > 15 {
				return 0, fmt.Errorf("fault: bad register in %q", name)
			}
			w = d.Regs[r]
			if w == nil {
				return 0, fmt.Errorf("fault: register %s has no register-file flip-flops", base)
			}
		default:
			return 0, fmt.Errorf("fault: unknown register %q in %q", base, name)
		}
		if bit < 0 || bit >= len(w) {
			return 0, fmt.Errorf("fault: bit %d out of range for %q", bit, name)
		}
		return w[bit], nil
	}
	id, ok := d.NL.Lookup(name)
	if !ok {
		return 0, fmt.Errorf("fault: no net named %q", name)
	}
	return id, nil
}

func (f StuckFF) applyDesign(d *mcu.Design) error {
	if f.Value != logic.Zero && f.Value != logic.One {
		return fmt.Errorf("fault: stuck value must be 0 or 1, got %s", f.Value)
	}
	q, err := f.qNet(d)
	if err != nil {
		return err
	}
	cv := d.NL.Const0()
	if f.Value == logic.One {
		cv = d.NL.Const1()
	}
	for i := range d.NL.DFFs {
		ff := &d.NL.DFFs[i]
		if ff.Q == q {
			ff.D = cv
			ff.Rst = d.NL.Const0()
			ff.En = d.NL.Const1()
			return nil
		}
	}
	return fmt.Errorf("fault: net %q is not a flip-flop output", f.FF)
}

func (f StuckFF) applySystem(sys *mcu.System) error { return nil }

// PortX forces an input port to unknown (X) on every cycle, optionally
// carrying taint — a floating or adversarial pin the policy did not expect.
type PortX struct {
	Port  int // 0-based port index (P1IN..P4IN)
	Taint bool
}

func (f PortX) Describe() string {
	if f.Taint {
		return fmt.Sprintf("tainted-X input port P%dIN", f.Port+1)
	}
	return fmt.Sprintf("unknown input port P%dIN", f.Port+1)
}
func (f PortX) rewritesNetlist() bool           { return false }
func (f PortX) applyDesign(d *mcu.Design) error { return nil }

func (f PortX) applySystem(sys *mcu.System) error {
	if f.Port < 0 || f.Port >= mcu.NumPorts {
		return fmt.Errorf("fault: port index %d out of range", f.Port)
	}
	w := sim.Word{XM: 0xffff}
	if f.Taint {
		w.TT = 0xffff
	}
	sys.SetPortIn(f.Port, w)
	return nil
}

// ROMCorrupt damages one program-memory word after image placement: Xor
// flips value bits, MakeX turns bits unknown, Taint marks the whole word
// tainted (a compromised or rowhammered flash word).
type ROMCorrupt struct {
	Addr  uint16
	Xor   uint16
	MakeX uint16
	Taint bool
}

func (f ROMCorrupt) Describe() string {
	return fmt.Sprintf("corrupt ROM word %#04x (xor=%#04x x=%#04x taint=%v)", f.Addr, f.Xor, f.MakeX, f.Taint)
}
func (f ROMCorrupt) rewritesNetlist() bool           { return false }
func (f ROMCorrupt) applyDesign(d *mcu.Design) error { return nil }

func (f ROMCorrupt) applySystem(sys *mcu.System) error { return f.corrupt(sys.ROM) }

// corrupt applies the fault to one program memory (a System's or a batch
// lane's).
func (f ROMCorrupt) corrupt(rom *sim.TaintMem) error {
	if !rom.Contains(f.Addr) {
		return fmt.Errorf("fault: %#04x is outside program memory", f.Addr)
	}
	w := rom.LoadWord(f.Addr)
	w.Val ^= f.Xor
	w.XM |= f.MakeX
	if f.Taint {
		w.TT = 0xffff
	}
	rom.StoreWord(f.Addr, w)
	return nil
}

// Result pairs the injected faults with the checker's report on the
// damaged system.
type Result struct {
	Faults []Fault
	Report *glift.Report
}

// FailClosed reports whether the checker honoured the fail-closed contract
// under the faults: any verdict except a clean Verified.
func (r *Result) FailClosed() bool { return r.Report.Verdict() != glift.Verified }

// design prepares the design for the fault set: the shared singleton when
// no fault rewrites the netlist, otherwise a private build with every
// design-phase mutation applied.
func design(faults []Fault) (*mcu.Design, error) {
	fresh := false
	for _, f := range faults {
		if f.rewritesNetlist() {
			fresh = true
			break
		}
	}
	if !fresh {
		return glift.SharedDesign(), nil
	}
	d := mcu.Build()
	for _, f := range faults {
		if err := f.applyDesign(d); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Analyze runs the symbolic checker on the faulted system: the program and
// policy are set up exactly as in glift.Analyze, then the faults' system
// phase is applied on top (so a fault can override policy port values), and
// the exploration runs under ctx.
func Analyze(ctx context.Context, img *asm.Image, pol *glift.Policy, opt *glift.Options, faults ...Fault) (*Result, error) {
	d, err := design(faults)
	if err != nil {
		return nil, err
	}
	eng, err := glift.NewEngineOn(d, img, pol, opt)
	if err != nil {
		return nil, err
	}
	for _, f := range faults {
		if err := f.applySystem(eng.Sys); err != nil {
			return nil, err
		}
	}
	return &Result{Faults: faults, Report: eng.RunContext(ctx)}, nil
}

// Run executes the faulted system concretely until the program parks on a
// self-jump, the cycle budget runs out, or the machine state degenerates
// (unknown PC) — the latter two return an error, keeping concrete fault
// runs fail-closed too.
func Run(ctx context.Context, img *asm.Image, maxCycles uint64, faults ...Fault) (uint64, error) {
	d, err := design(faults)
	if err != nil {
		return 0, err
	}
	sys, err := mcu.NewSystem(d)
	if err != nil {
		return 0, err
	}
	sys.LoadImage(img)
	for _, f := range faults {
		if err := f.applySystem(sys); err != nil {
			return 0, err
		}
	}
	sys.PowerOn()
	cycles, err := sys.RunToCompletion(ctx, maxCycles)
	if err != nil {
		err = fmt.Errorf("fault: %w", err)
	}
	return cycles, err
}
