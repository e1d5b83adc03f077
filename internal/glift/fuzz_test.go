package glift

// Randomized differential fuzzing of the parallel exploration mode and the
// evaluation backends. A seeded generator emits small legal MSP430 programs
// exercising the constructs the engine must replay exactly — branches on
// tainted inputs (forks), stores to RAM and ports (violation checks),
// concrete loops (merge points), and watchdog arming/resets (POR forks) —
// and each program is analyzed under a (backend, workers) sweep. Every
// report must serialize identically modulo wall time to the reference
// (interpreter, Workers=1). A failing program is dumped to testdata/ so it
// can be replayed:
//
//	go test ./internal/glift -run Fuzz -seed <n>
//
// With no -seed, a fixed set of seeds runs, so CI is deterministic.

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

var (
	fuzzSeed  = flag.Int64("seed", 0, "run the differential fuzz test with this single seed (0: fixed seed set)")
	fuzzProgs = flag.Int("fuzz-programs", 4, "programs generated per seed in the differential fuzz test")
)

// fuzzRegs are the scratch registers the generator draws from; SP/SR/CG
// stay untouched so every generated program is legal.
var fuzzRegs = []string{"r4", "r5", "r6", "r7", "r8", "r9"}

// genProgram emits one small legal MSP430 program. Control flow is kept
// well-formed by construction: branches always target a forward label that
// is emitted one to three instructions later, and the program ends by
// jumping back to start, so exploration terminates only through the
// conservative table (widening) or the cycle budgets — both of which the
// parallel mode must reproduce exactly.
func genProgram(r *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString(".equ WDTCTL, 0x0120\n")
	sb.WriteString("start:\n")

	reg := func() string { return fuzzRegs[r.Intn(len(fuzzRegs))] }
	ramAddr := func() uint16 { return uint16(0x0300 + 2*r.Intn(64)) }

	// pending forward-branch labels: name -> instructions remaining until
	// the label must be emitted.
	type fwd struct {
		name  string
		after int
	}
	var pending []fwd
	labels := 0
	emitLabels := func() {
		kept := pending[:0]
		for _, f := range pending {
			f.after--
			if f.after <= 0 {
				fmt.Fprintf(&sb, "%s:\n", f.name)
			} else {
				kept = append(kept, f)
			}
		}
		pending = kept
	}

	n := 8 + r.Intn(12)
	for i := 0; i < n; i++ {
		switch r.Intn(10) {
		case 0: // tainted input load (P1IN)
			fmt.Fprintf(&sb, "        mov &0x0020, %s\n", reg())
		case 1: // untainted input load (P3IN)
			fmt.Fprintf(&sb, "        mov &0x0028, %s\n", reg())
		case 2: // register arithmetic
			ops := []string{"add", "sub", "xor", "and", "bis"}
			fmt.Fprintf(&sb, "        %s %s, %s\n", ops[r.Intn(len(ops))], reg(), reg())
		case 3: // immediate arithmetic (masking bounds taint spread)
			ops := []string{"add", "and", "xor"}
			fmt.Fprintf(&sb, "        %s #%d, %s\n", ops[r.Intn(len(ops))], 1+r.Intn(15), reg())
		case 4: // RAM store
			fmt.Fprintf(&sb, "        mov %s, &0x%04x\n", reg(), ramAddr())
		case 5: // RAM load
			fmt.Fprintf(&sb, "        mov &0x%04x, %s\n", ramAddr(), reg())
		case 6: // branch on a (possibly tainted) low bit: the fork driver
			labels++
			name := fmt.Sprintf("skip%d", labels)
			x := reg()
			fmt.Fprintf(&sb, "        and #1, %s\n", x)
			fmt.Fprintf(&sb, "        jnz %s\n", name)
			pending = append(pending, fwd{name: name, after: 1 + r.Intn(3)})
		case 7: // flag-setting compare plus a conditional jump
			labels++
			name := fmt.Sprintf("skip%d", labels)
			jcc := []string{"jz", "jc", "jge", "jn"}
			fmt.Fprintf(&sb, "        cmp %s, %s\n", reg(), reg())
			fmt.Fprintf(&sb, "        %s %s\n", jcc[r.Intn(len(jcc))], name)
			pending = append(pending, fwd{name: name, after: 1 + r.Intn(3)})
		case 8: // small concrete countdown loop: a guaranteed merge point
			labels++
			name := fmt.Sprintf("loop%d", labels)
			x := reg()
			fmt.Fprintf(&sb, "        mov #%d, %s\n", 1+r.Intn(5), x)
			fmt.Fprintf(&sb, "%s: dec %s\n", name, x)
			fmt.Fprintf(&sb, "        jnz %s\n", name)
		case 9: // watchdog: arm the shortest interval, or hold the counter
			if r.Intn(2) == 0 {
				sb.WriteString("        mov #0x5a03, &WDTCTL ; arm 63-cycle interval\n")
			} else {
				sb.WriteString("        mov #0x5a80, &WDTCTL ; hold the counter\n")
			}
		}
		// occasionally leak to an output port; whether it violates depends
		// on what the registers carry, and both modes must agree
		if r.Intn(8) == 0 {
			if r.Intn(2) == 0 {
				fmt.Fprintf(&sb, "        mov %s, &0x0026\n", reg()) // P2OUT (tainted-allowed)
			} else {
				fmt.Fprintf(&sb, "        mov %s, &0x002e\n", reg()) // P4OUT (must stay clean)
			}
		}
		emitLabels()
	}
	for _, f := range pending {
		fmt.Fprintf(&sb, "%s:\n", f.name)
	}
	sb.WriteString("        jmp start\n")
	return sb.String()
}

// fuzzConfig is one point in the (backend, workers) sweep.
type fuzzConfig struct {
	backend sim.BackendKind
	workers int
}

func (c fuzzConfig) String() string {
	return fmt.Sprintf("%s/workers=%d", c.backend, c.workers)
}

// fuzzRef is the reference configuration; fuzzSweep holds the ones compared
// against it.
var (
	fuzzRef   = fuzzConfig{backend: sim.BackendInterp, workers: 1}
	fuzzSweep = []fuzzConfig{
		{backend: sim.BackendInterp, workers: 4},
		{backend: sim.BackendCompiled, workers: 1},
		{backend: sim.BackendCompiled, workers: 4},
	}
)

// fuzzOptions bounds one analysis tightly so a fuzz run stays fast while
// still exercising widening, budgets, and fork-heavy exploration.
func fuzzOptions(c fuzzConfig) *Options {
	return &Options{
		Workers:       c.workers,
		Backend:       c.backend,
		MaxCycles:     40_000,
		MaxPathCycles: 4_000,
		WidenAfter:    16,
	}
}

// fuzzReport analyzes src and returns the wall-time-normalized report JSON.
func fuzzReport(t *testing.T, src string, c fuzzConfig) []byte {
	t.Helper()
	rep, err := Analyze(mustImage(t, src), &Policy{
		Name:            "integrity",
		TaintedInPorts:  []int{0},
		TaintedOutPorts: []int{1},
	}, fuzzOptions(c))
	if err != nil {
		t.Fatalf("analyze (%s): %v", c, err)
	}
	j := rep.JSON()
	j.Stats.WallNanos = 0
	out, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return out
}

// dumpFailure writes a mismatching program (plus both reports) under
// testdata/ and returns the path for the failure message.
func dumpFailure(t *testing.T, seed int64, idx int, src string, c fuzzConfig, ref, got []byte) string {
	t.Helper()
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatalf("mkdir testdata: %v", err)
	}
	path := filepath.Join("testdata", fmt.Sprintf("fuzz_seed%d_prog%d.s", seed, idx))
	body := fmt.Sprintf("; differential fuzz failure: seed=%d program=%d config=%s\n; repro: go test ./internal/glift -run Fuzz -seed %d\n%s\n; --- %s report ---\n; %s\n; --- %s report ---\n; %s\n",
		seed, idx, c, seed, src,
		fuzzRef, strings.ReplaceAll(string(ref), "\n", "\n; "),
		c, strings.ReplaceAll(string(got), "\n", "\n; "))
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	return path
}

func fuzzOneSeed(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < *fuzzProgs; i++ {
		src := genProgram(r)
		ref := fuzzReport(t, src, fuzzRef)
		for _, c := range fuzzSweep {
			got := fuzzReport(t, src, c)
			if string(ref) != string(got) {
				path := dumpFailure(t, seed, i, src, c, ref, got)
				t.Errorf("seed %d program %d: %s report differs from %s (program dumped to %s)\n--- %s ---\n%s\n--- %s ---\n%s",
					seed, i, c, fuzzRef, path, fuzzRef, ref, c, got)
			}
		}
	}
}

// TestFuzzDifferentialPrograms generates random legal MSP430 programs and
// requires every (backend, workers) configuration to agree on every one.
func TestFuzzDifferentialPrograms(t *testing.T) {
	if *fuzzSeed != 0 {
		fuzzOneSeed(t, *fuzzSeed)
		return
	}
	for _, seed := range []int64{1, 2, 3, 4, 5, 6} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			fuzzOneSeed(t, seed)
		})
	}
}
