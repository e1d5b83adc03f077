package glift_test

// Differential testing of the engine's "performance knobs change nothing"
// contract: Options.Workers and Options.Backend change wall-clock time and
// nothing else, and the content-addressed job cache in internal/service
// relies on that guarantee (both are excluded from job keys). This harness
// enforces it the strong way — every scaffold benchmark is analyzed under a
// sweep of (backend, workers) configurations and every report must
// serialize byte-identically to the reference (interpreter, sequential)
// once the wall-time field (the one documented exception) is zeroed. The
// reference bytes are pinned by the golden digests, so the reference run
// happens once per benchmark in TestGoldenReportDigests, not once per test.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/glift"
	"repro/internal/sim"
)

// normalizedReportJSON serializes a report with wall-time zeroed, the only
// field allowed to differ between configurations.
func normalizedReportJSON(t *testing.T, rep *glift.Report) []byte {
	t.Helper()
	j := rep.JSON()
	j.Stats.WallNanos = 0
	out, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return out
}

// violationSet order-normalizes a report's violations for set comparison.
func violationSet(rep *glift.Report) []string {
	out := make([]string, 0, len(rep.Violations))
	for _, v := range rep.Violations {
		out = append(out, fmt.Sprintf("%s@%#04x: %s", v.Kind, v.PC, v.Detail))
	}
	sort.Strings(out)
	return out
}

// analysisConfig is one point in the (backend, workers) sweep.
type analysisConfig struct {
	backend sim.BackendKind
	workers int
}

func (c analysisConfig) String() string {
	return fmt.Sprintf("%s/workers=%d", c.backend, c.workers)
}

// refConfig is the differential reference: the interpreter backend run
// sequentially, the simplest configuration the engine supports.
var refConfig = analysisConfig{backend: sim.BackendInterp, workers: 1}

// sweepConfigs are the configurations compared against refConfig: the
// parallel interpreter and the compiled backend at both worker counts.
var sweepConfigs = []analysisConfig{
	{backend: sim.BackendInterp, workers: 4},
	{backend: sim.BackendCompiled, workers: 1},
	{backend: sim.BackendCompiled, workers: 4},
}

func analyzeConfig(t *testing.T, bt *bench.Built, c analysisConfig) *glift.Report {
	t.Helper()
	rep, err := glift.Analyze(bt.Img, bt.Policy, &glift.Options{Workers: c.workers, Backend: c.backend})
	if err != nil {
		t.Fatalf("analyze %s (%s): %v", bt.Bench.Name, c, err)
	}
	return rep
}

// goldenDigests reads the committed interp/1 report digests that
// TestGoldenReportDigests pins, keyed by benchmark name.
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden digests: %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	return want
}

// checkAgainstReference compares a report with the committed digest of the
// reference configuration's report for the same benchmark. Only on a
// mismatch does it run the reference itself, and then the weaker checks
// (verdict, order-normalized violation set, conservative-table size) run
// before the full byte comparison to localize the difference.
func checkAgainstReference(t *testing.T, bt *bench.Built, c analysisConfig, got *glift.Report, digest string) {
	t.Helper()
	gotJSON := normalizedReportJSON(t, got)
	if sum := sha256.Sum256(gotJSON); hex.EncodeToString(sum[:]) == digest {
		return
	}
	ref := analyzeConfig(t, bt, refConfig)
	if rv, gv := ref.Verdict(), got.Verdict(); rv != gv {
		t.Errorf("%s: verdict mismatch: %s %v, %s %v", c, refConfig, rv, c, gv)
	}
	rvs, gvs := violationSet(ref), violationSet(got)
	if len(rvs) != len(gvs) {
		t.Errorf("%s: violation count mismatch: %s %d, %s %d", c, refConfig, len(rvs), c, len(gvs))
	} else {
		for i := range rvs {
			if rvs[i] != gvs[i] {
				t.Errorf("%s: violation set mismatch at %d:\n  %s: %s\n  %s: %s", c, i, refConfig, rvs[i], c, gvs[i])
			}
		}
	}
	if rt, gt := ref.Stats.TableStates, got.Stats.TableStates; rt != gt {
		t.Errorf("%s: table size mismatch: %s %d, %s %d", c, refConfig, rt, c, gt)
	}
	if refJSON := normalizedReportJSON(t, ref); string(refJSON) != string(gotJSON) {
		t.Errorf("%s: report differs beyond wall time:\n--- %s ---\n%s\n--- %s ---\n%s",
			c, refConfig, refJSON, c, gotJSON)
	} else {
		t.Errorf("%s: report equals %s's but not its committed digest (see TestGoldenReportDigests)", c, refConfig)
	}
}

// TestDifferentialScaffoldBenchmarks runs every scaffold benchmark under the
// sweep configurations and asserts each report is byte-identical, modulo
// wall time, to the reference's. The reference bytes are the committed
// digests, which TestGoldenReportDigests recomputes from a reference run,
// so the reference only runs here to explain a mismatch.
func TestDifferentialScaffoldBenchmarks(t *testing.T) {
	want := goldenDigests(t)
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			bt, err := bench.BuildUnmodified(b)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			for _, c := range sweepConfigs {
				checkAgainstReference(t, bt, c, analyzeConfig(t, bt, c), want[b.Name])
			}
		})
	}
}

// TestDifferentialWorkerSweep covers worker counts beyond the canonical
// 1-vs-4 pair on a fork-heavy benchmark, including pools larger than the
// path count, on both backends. Counts are capped at GOMAXPROCS, so each
// distinct effective count runs once.
func TestDifferentialWorkerSweep(t *testing.T) {
	bt, err := bench.BuildUnmodified(bench.ByName("binSearch"))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	want := goldenDigests(t)["binSearch"]
	for _, be := range sim.Backends() {
		ran := map[int]bool{}
		for _, w := range []int{2, 3, 8} {
			eff := min(w, runtime.GOMAXPROCS(0))
			if ran[eff] {
				continue
			}
			ran[eff] = true
			c := analysisConfig{backend: be, workers: w}
			checkAgainstReference(t, bt, c, analyzeConfig(t, bt, c), want)
		}
	}
}
