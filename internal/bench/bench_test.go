package bench

import (
	"sync"
	"testing"

	"repro/internal/energy"
	"repro/internal/glift"
)

// Evaluations are expensive (symbolic analysis of 3 variants x 13
// benchmarks); run once and share across tests.
var (
	evalOnce sync.Once
	evals    []*Evaluation
	evalErr  error
)

func allEvals(t *testing.T) []*Evaluation {
	t.Helper()
	evalOnce.Do(func() {
		evals, evalErr = EvaluateAll(nil)
	})
	if evalErr != nil {
		t.Fatal(evalErr)
	}
	return evals
}

func TestBenchmarkListMatchesTable1(t *testing.T) {
	want := []string{"binSearch", "div", "inSort", "intAVG", "intFilt", "mult",
		"rle", "tHold", "tea8", "FFT", "Viterbi", "ConvEn", "autocorr"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("have %d benchmarks, want %d", len(all), len(want))
	}
	for i, b := range all {
		if b.Name != want[i] {
			t.Errorf("benchmark %d = %s, want %s", i, b.Name, want[i])
		}
	}
	if ByName("nonexistent") != nil {
		t.Error("ByName ghost hit")
	}
	if ByName("tea8") == nil {
		t.Error("ByName miss")
	}
}

// TestTable2 reproduces the paper's Table 2: exactly the six benchmarks
// binSearch, div, inSort, intAVG, tHold and Viterbi violate sufficient
// conditions 1 and 2 before modification, and none violate after.
func TestTable2(t *testing.T) {
	rows, _ := Tables(allEvals(t))
	for _, r := range rows {
		if r.ExpectC1C2 {
			if !r.UnmodC1 || !r.UnmodC2 {
				t.Errorf("%s: expected C1+C2 violations, got C1=%v C2=%v", r.Name, r.UnmodC1, r.UnmodC2)
			}
		} else if r.UnmodC1 || r.UnmodC2 {
			t.Errorf("%s: expected clean, got C1=%v C2=%v", r.Name, r.UnmodC1, r.UnmodC2)
		}
		if r.ModC1 || r.ModC2 {
			t.Errorf("%s: modified program still violates C1=%v C2=%v", r.Name, r.ModC1, r.ModC2)
		}
	}
}

// TestModifiedSystemsVerifySecure is the paper's headline guarantee: after
// the toolflow's software modifications, the analysis reports zero possible
// violations of the information flow policy.
func TestModifiedSystemsVerifySecure(t *testing.T) {
	for _, ev := range allEvals(t) {
		if !ev.WithReport.Secure() {
			t.Errorf("%s: modified system not secure: %v", ev.Bench.Name, ev.WithReport.Violations)
		}
	}
}

// TestTable3Shape checks the structural claims of Table 3: applications
// without vulnerabilities incur zero overhead under application-specific
// analysis, the always-on baseline pays on every benchmark, and targeted
// protection is never more expensive than always-on.
func TestTable3Shape(t *testing.T) {
	_, rows := Tables(allEvals(t))
	for _, r := range rows {
		if !r.Watchdog && r.With != 0 {
			t.Errorf("%s: clean benchmark has %0.2f%% with-analysis overhead", r.Name, r.With)
		}
		if r.Without <= 0 {
			t.Errorf("%s: always-on overhead %0.2f%% should be positive", r.Name, r.Without)
		}
		if r.With > r.Without+1 {
			t.Errorf("%s: with-analysis (%0.2f%%) exceeds always-on (%0.2f%%)", r.Name, r.With, r.Without)
		}
	}
	if f := ReductionFactor(rows); f < 1.3 {
		t.Errorf("overhead reduction factor = %0.2fx, expected well above 1x (paper: 3.3x)", f)
	}
}

// TestCPIBand: the paper reports benchmark CPI between 1.25 and 1.39 on its
// openMSP430; our core's band is comparable (1.0-1.5).
func TestCPIBand(t *testing.T) {
	for _, ev := range allEvals(t) {
		cpi := ev.UnmodMeasure.CPI()
		if cpi < 1.0 || cpi > 1.5 {
			t.Errorf("%s: CPI %.2f outside [1.0, 1.5]", ev.Bench.Name, cpi)
		}
	}
}

// TestEnergyOverheadBand: the average energy overhead of the
// analysis-guided protection lands in the tens of percent (the paper
// reports 15% on its benchmarks/netlist).
func TestEnergyOverheadBand(t *testing.T) {
	model := energy.Default
	var sum float64
	n := 0
	for _, ev := range allEvals(t) {
		if ev.WithMeasure == nil {
			continue
		}
		o := model.OverheadPercent(
			ev.UnmodMeasure.PeriodCycles, ev.UnmodMeasure.Toggles,
			ev.WithMeasure.PeriodCycles, ev.WithMeasure.Toggles)
		sum += o
		n++
	}
	if n < 7 {
		t.Fatalf("only %d benchmarks measured", n)
	}
	avg := sum / float64(n)
	if avg < 1 || avg > 80 {
		t.Errorf("average energy overhead %.1f%% outside the plausible band", avg)
	}
	t.Logf("average with-analysis energy overhead: %.1f%% over %d benchmarks (paper: 15%%)", avg, n)
}

// TestMeasureDeterminism: the LFSR-driven concrete runs are reproducible.
func TestMeasureDeterminism(t *testing.T) {
	bt, err := BuildUnmodified(ByName("tea8"))
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Measure(bt, 0x1234, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Measure(bt, 0x1234, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if *m1 != *m2 {
		t.Fatalf("nondeterministic measurement: %+v vs %+v", m1, m2)
	}
}

// TestVariantString covers the Stringer.
func TestVariantString(t *testing.T) {
	if Unmodified.String() != "unmodified" || WithAnalysis.String() != "with-analysis" || AlwaysOn.String() != "always-on" {
		t.Fatal("variant names")
	}
}

// TestAnalysisStatsReported: the per-benchmark analysis stats used for the
// footnote-4 runtime discussion are populated.
func TestAnalysisStatsReported(t *testing.T) {
	for _, ev := range allEvals(t) {
		st := ev.UnmodReport.Stats
		if st.Cycles == 0 || st.Paths == 0 {
			t.Errorf("%s: empty analysis stats %s", ev.Bench.Name, st)
		}
		if st.WallNanos <= 0 {
			t.Errorf("%s: missing wall time", ev.Bench.Name)
		}
	}
}

// TestPolicyShape sanity-checks the per-benchmark policy labels.
func TestPolicyShape(t *testing.T) {
	bt, err := BuildUnmodified(ByName("mult"))
	if err != nil {
		t.Fatal(err)
	}
	p := bt.Policy
	if !p.TaintedInPort(0) || p.TaintedInPort(2) {
		t.Error("P1IN should be the only tainted input")
	}
	if !p.TaintedOutPort(1) || p.TaintedOutPort(3) {
		t.Error("P2OUT should be the only tainted output")
	}
	if len(p.TaintedCode) != 1 || p.TaintedCode[0].Lo >= p.TaintedCode[0].Hi {
		t.Error("tainted code partition malformed")
	}
	if _, err := glift.Analyze(bt.Img, p, nil); err != nil {
		t.Error(err)
	}
}

// TestEvaluateProgressSeesEveryAnalysis: a Progress hook in AnalysisOpt
// observes every analysis the pipeline runs, each ending in one Done
// snapshot. binSearch needs at least three: the unmodified system, the
// re-verification of its masked stores, and the watchdog-armed variant.
func TestEvaluateProgressSeesEveryAnalysis(t *testing.T) {
	var mu sync.Mutex
	done := 0
	opt := &Options{AnalysisOpt: &glift.Options{Progress: func(p glift.Progress) {
		if p.Done {
			mu.Lock()
			done++
			mu.Unlock()
		}
	}}}
	ev, err := Evaluate(ByName("binSearch"), opt)
	if err != nil {
		t.Fatal(err)
	}
	if ev.With.Masked == 0 || !ev.With.Watchdog {
		t.Fatalf("binSearch: want masked stores and an armed watchdog, got %d masked, watchdog %v",
			ev.With.Masked, ev.With.Watchdog)
	}
	if done < 3 {
		t.Errorf("progress hook saw %d finished analyses, want at least 3", done)
	}
}
