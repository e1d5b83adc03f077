package glift

import (
	"encoding/json"
	"runtime"
	"testing"
)

// TestCycleBudgetExhaustion: a tiny budget must surface AnalysisIncomplete
// rather than silently truncating coverage.
func TestCycleBudgetExhaustion(t *testing.T) {
	rep := analyze(t, `
start:  mov &0x0020, r5
        and #7, r5
loop:   dec r5
        jnz loop
        jmp start
`, &Policy{Name: "integrity", TaintedInPorts: []int{0}})
	if hasKind(rep, AnalysisIncomplete) {
		t.Fatal("default budget should suffice for the control test")
	}
	img := mustImage(t, `
start:  mov &0x0020, r5
        and #7, r5
loop:   dec r5
        jnz loop
        jmp start
`)
	small, err := Analyze(img, &Policy{Name: "integrity", TaintedInPorts: []int{0}},
		&Options{MaxCycles: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !hasKind(small, AnalysisIncomplete) {
		t.Fatalf("tiny budget should report incompleteness: %v", small.Violations)
	}
}

// TestAnalysisDeterminism: identical inputs produce identical reports.
func TestAnalysisDeterminism(t *testing.T) {
	src := `
start:  mov &0x0020, r15
        mov #0x0200, r14
        add r15, r14
        mov #500, 0(r14)
        mov &0x0020, r5
        and #3, r5
lp:     dec r5
        jnz lp
done:   jmp done
`
	pol := &Policy{Name: "integrity", TaintedInPorts: []int{0}, TaintedData: []AddrRange{{0x0400, 0x0800}}}
	a := analyze(t, src, pol)
	b := analyze(t, src, pol)
	if len(a.Violations) != len(b.Violations) {
		t.Fatalf("nondeterministic: %d vs %d violations", len(a.Violations), len(b.Violations))
	}
	for i := range a.Violations {
		va, vb := a.Violations[i], b.Violations[i]
		va.Cycle, vb.Cycle = 0, 0
		if va != vb {
			t.Fatalf("violation %d differs: %v vs %v", i, va, vb)
		}
	}
	if a.Stats.Cycles != b.Stats.Cycles || a.Stats.Forks != b.Stats.Forks {
		t.Fatalf("exploration differs: %s vs %s", a.Stats, b.Stats)
	}
}

// TestWidenAfterOne mirrors the ablation: eager widening must still be
// sound (it may add false positives, never lose true ones).
func TestWidenAfterOne(t *testing.T) {
	src := `
start:  mov &0x0020, r15
        mov #0x0200, r14
        add r15, r14
        mov #500, 0(r14)
done:   jmp done
`
	pol := &Policy{Name: "integrity", TaintedInPorts: []int{0}, TaintedData: []AddrRange{{0x0400, 0x0800}}}
	img := mustImage(t, src)
	eager, err := Analyze(img, pol, &Options{WidenAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(eager.ByKind(C2MemoryEscape)) == 0 {
		t.Fatalf("eager widening lost the true violation: %v", eager.Violations)
	}
}

// TestYieldCannotUntaintPC reproduces Section 5.2's core argument: a
// tainted task that "voluntarily" returns control — even through a clean,
// untainted return address with full register hygiene — leaves the PC
// tainted, because when the yield executes is attacker-influenced. Only the
// untainted watchdog reset recovers trusted control flow (the companion
// Figure 8 test).
func TestYieldCannotUntaintPC(t *testing.T) {
	src := `
start:  mov #0x0400, sp
        jmp tstart
t_done: nop                  ; untainted code resumes here after the yield
        jmp start
tstart: mov &0x0020, r5      ; tainted input
        and #3, r5
loop:   dec r5
        jnz loop             ; tainted control flow -> tainted PC
        clr r5               ; full register/flag hygiene
        mov #0, sr
        br #t_done           ; "yield": clean, constant return target
tend:   nop
`
	img := mustImage(t, src)
	pol := &Policy{
		Name:           "integrity",
		TaintedInPorts: []int{0},
		TaintedCode:    []AddrRange{{img.MustSymbol("tstart"), img.MustSymbol("tend")}},
	}
	rep, err := Analyze(img, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hasKind(rep, C1TaintedState) {
		t.Fatalf("the yield must not launder PC taint: %v", rep.Violations)
	}
}

// TestWorkersCappedAtGOMAXPROCS: a worker count far beyond the processor
// count starts no more speculation goroutines than GOMAXPROCS allows, and
// the report is byte-identical to the sequential one.
func TestWorkersCappedAtGOMAXPROCS(t *testing.T) {
	img := mustImage(t, `
start:  mov &0x0020, r5
        and #7, r5
loop:   dec r5
        jnz loop
        mov r5, &0x002a
done:   jmp done
`)
	pol := &Policy{Name: "integrity", TaintedInPorts: []int{0}}
	run := func(workers int) ([]byte, Progress) {
		var last Progress
		rep, err := Analyze(img, pol, &Options{Workers: workers, Progress: func(p Progress) { last = p }})
		if err != nil {
			t.Fatal(err)
		}
		j := rep.JSON()
		j.Stats.WallNanos = 0
		out, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		return out, last
	}
	want, _ := run(1)
	got, last := run(1 << 20)
	if string(got) != string(want) {
		t.Errorf("Workers=1<<20 report differs from Workers=1:\n%s\nvs\n%s", got, want)
	}
	if !last.Done {
		t.Fatalf("last progress snapshot is not the Done emission: %+v", last)
	}
	if w, max := last.Sched.Workers, runtime.GOMAXPROCS(0)-1; w != max {
		t.Errorf("final Sched.Workers = %d, want GOMAXPROCS-1 = %d", w, max)
	}
}
