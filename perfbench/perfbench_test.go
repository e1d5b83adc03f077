package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// shortConfig is a one-second run of a workload against the enclosing
// repository, writing into a test directory.
func shortConfig(t *testing.T, workload string, seed uint64, traced bool) *config {
	t.Helper()
	return &config{workload: workload, seed: seed, window: time.Second, traced: traced, root: "..", outDir: t.TempDir()}
}

// smallPrograms restricts the analysis workloads to one program each for
// the duration of a test: the full sets take tens of seconds per pass.
func smallPrograms(t *testing.T) {
	t.Helper()
	fork, straight := forkBenchmarks, straightBenchmarks
	forkBenchmarks, straightBenchmarks = []string{"intAVG"}, []string{"rle", "FFT"}
	t.Cleanup(func() { forkBenchmarks, straightBenchmarks = fork, straight })
}

// run executes one workload and decodes its JSON result line.
func run(t *testing.T, cfg *config) (jsonResult, *metrics) {
	t.Helper()
	m, o, err := workloads[cfg.workload](context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	var out bytes.Buffer
	if err := report(&out, m, o, cfg.traced); err != nil {
		t.Fatalf("%s: report: %v", cfg.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v\n%s", cfg.workload, err, out.String())
	}
	return res, m
}

// checkCatalog asserts the result carries exactly the catalog's metrics
// with their units.
func checkCatalog(t *testing.T, workload string, res jsonResult, catalog []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(catalog) {
		t.Errorf("%s: %d metrics, catalog has %d", workload, len(res.Metrics), len(catalog))
	}
	for _, s := range catalog {
		got, ok := res.Metrics[s.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, s.Name)
			continue
		}
		if got.Unit != s.Unit {
			t.Errorf("%s: metric %s in %q, want %q", workload, s.Name, got.Unit, s.Unit)
		}
	}
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that each reports every metric of its mode by name and unit, that
// the end-to-end metrics are positive, and that every check passed.
func TestShortRuns(t *testing.T) {
	smallPrograms(t)
	for _, w := range []string{"explore-fork", "straightline", "service-mix", "fault-batch"} {
		for _, traced := range []bool{false, true} {
			res, m := run(t, shortConfig(t, w, 7, traced))
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			if !traced {
				checkCatalog(t, w, res, endToEnd)
				for _, s := range endToEnd {
					if v := res.Metrics[s.Name].Value; !(v > 0) {
						t.Errorf("%s: %s = %v, want > 0", w, s.Name, v)
					}
				}
				continue
			}
			checkCatalog(t, w, res, perLayer)
			// Each workload measures the layers on its path.
			want := map[string][]string{
				"explore-fork": {"glift.cycle_us_p50", "glift.fork_us_p50", "glift.seq_wall_s", "sim.restore_eval_us_p50", "mcu.eval_cycle_us_p50"},
				"straightline": {"glift.cycle_us_p50", "glift.resume_us_p50", "sim.step_eval_us_p50", "mcu.commit_us_p50"},
				"service-mix":  {"service.engine_run_ms_p50", "service.cache_hit_ms_p50", "client.ack_ms_p50", "repair.round_ms_p50", "glift.cycle_us_p50"},
				"fault-batch":  {"fault.lane_occupancy", "fault.batches", "sim.batch_eval_us_p50", "mcu.snapshot_us_p50"},
			}[w]
			for _, name := range want {
				if v, ok := m.vals[name]; !ok || !(v > 0) {
					t.Errorf("%s traced: %s = %v (measured %v), want > 0", w, name, v, ok)
				}
			}
		}
	}
}

// TestExactCountsRepeat checks that the deterministic work counts of the
// traced run are identical across runs with different seeds (the seed only
// orders the analyses).
func TestExactCountsRepeat(t *testing.T) {
	smallPrograms(t)
	exact := []string{"glift.cycles", "glift.paths", "glift.forks", "glift.prunes", "glift.merges",
		"glift.table_states", "glift.violations", "sim.gates", "mcu.snapshot_bytes"}
	for _, w := range []string{"explore-fork", "straightline"} {
		a, _ := run(t, shortConfig(t, w, 1, true))
		b, _ := run(t, shortConfig(t, w, 2, true))
		for _, name := range exact {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				t.Errorf("%s: %s differs across runs: %v vs %v", w, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
		if a.Metrics["glift.cycles"].Value == 0 {
			t.Errorf("%s: no cycles counted", w)
		}
	}
}

// TestCorruptReferenceFails checks that a wrong reference digest is caught:
// with one committed digest altered, the run reports failures.
func TestCorruptReferenceFails(t *testing.T) {
	smallPrograms(t)
	root := t.TempDir()
	golden, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	golden["rle"] = strings.Repeat("0", 64)
	data, err := json.Marshal(golden)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, goldenPath)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := shortConfig(t, "straightline", 3, false)
	cfg.root = root
	res, _ := run(t, cfg)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted reference went unnoticed: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics the
// program reports in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestScheduleIsSeeded checks that inputs are a function of the seed.
func TestScheduleIsSeeded(t *testing.T) {
	a, b, c := schedule(5, 3*time.Second), schedule(5, 3*time.Second), schedule(6, 3*time.Second)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("same seed, different schedules: %d vs %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) == len(c) && a[0] == c[0] {
		t.Errorf("different seeds gave the same schedule start")
	}
	ids := newBuildIDs(9)
	seen := map[uint16]bool{}
	for i := 0; i < 4096; i++ {
		id := ids.take()
		if seen[id] {
			t.Fatalf("build ID %#04x issued twice", id)
		}
		seen[id] = true
	}
}
