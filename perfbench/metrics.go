package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd lists the metrics every untraced run reports, on every workload:
// what a user of the analyzer sees. They are defined once for all
// workloads; README.md gives each workload's reading of them.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"result_ms_p50", "ms"},
	{"result_ms_p90", "ms"},
	{"sim_cycles_per_s", "cycles/s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the metrics every traced run reports, one group per layer.
// A layer a workload never reaches reports 0 (its sample count, printed
// beside it, is 0 too).
var perLayer = []metricSpec{
	{"sim.gates", "count"},
	{"sim.restore_eval_us_p50", "us"},
	{"sim.step_eval_us_p50", "us"},
	{"sim.batch_eval_us_p50", "us"},

	{"mcu.eval_cycle_us_p50", "us"},
	{"mcu.commit_us_p50", "us"},
	{"mcu.snapshot_us_p50", "us"},
	{"mcu.restore_us_p50", "us"},
	{"mcu.substate_us_p50", "us"},
	{"mcu.merge_us_p50", "us"},
	{"mcu.snapshot_bytes", "bytes"},

	{"glift.cycles", "count"},
	{"glift.paths", "count"},
	{"glift.forks", "count"},
	{"glift.prunes", "count"},
	{"glift.merges", "count"},
	{"glift.table_states", "count"},
	{"glift.violations", "count"},
	{"glift.prune_ratio", "ratio"},
	{"glift.cycle_us_p50", "us"},
	{"glift.resume_us_p50", "us"},
	{"glift.fork_us_p50", "us"},
	{"glift.prune_us_p50", "us"},
	{"glift.cycle_share", "ratio"},
	{"glift.resume_share", "ratio"},
	{"glift.fork_share", "ratio"},
	{"glift.prune_share", "ratio"},
	{"glift.other_share", "ratio"},
	{"glift.seq_wall_s", "s"},
	{"glift.trace_overhead", "ratio"},
	{"glift.worker_speedup", "ratio"},

	{"service.queue_wait_ms_p50", "ms"},
	{"service.queue_wait_ms_p90", "ms"},
	{"service.engine_run_ms_p50", "ms"},
	{"service.persist_ms_p50", "ms"},
	{"service.persist_ms_p99", "ms"},
	{"service.cache_hit_ms_p50", "ms"},
	{"service.hit_ratio", "ratio"},
	{"service.coalesced", "count"},
	{"service.rejected", "count"},
	{"service.cpu_s", "s"},

	{"client.ack_ms_p50", "ms"},
	{"client.delivery_ms_p50", "ms"},
	{"loadgen.late_ms_p99", "ms"},

	{"repair.rounds", "count"},
	{"repair.round_ms_p50", "ms"},

	{"fault.lane_occupancy", "ratio"},
	{"fault.batches", "count"},
}

// metrics collects one run's measurements. Each value may carry the number
// of samples it was computed from, printed beside it.
type metrics struct {
	vals  map[string]float64
	units map[string]string
	n     map[string]int
	order []string
}

func newMetrics() *metrics {
	return &metrics{vals: map[string]float64{}, units: map[string]string{}, n: map[string]int{}}
}

// set records a metric; n < 0 means the value is not a sample statistic.
func (m *metrics) set(name, unit string, v float64, n int) {
	if _, ok := m.vals[name]; !ok {
		m.order = append(m.order, name)
	}
	m.vals[name] = v
	m.units[name] = unit
	if n >= 0 {
		m.n[name] = n
	}
}

// percentile sets name to the q-quantile (0..1) of xs.
func (m *metrics) percentile(name, unit string, xs []float64, q float64) {
	m.set(name, unit, quantile(xs, q), len(xs))
}

// quantile is the linearly interpolated q-quantile of xs (0 for no
// samples), the "inclusive" method of Python's statistics.quantiles.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durs converts durations to float samples in the unit given by conv.
func durs(ds []time.Duration, conv func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = conv(d)
	}
	return out
}

// outcome is one run's verdict on the operations it attempted.
type outcome struct {
	attempted int
	failed    int
	problems  []string
}

// ok records a successful operation.
func (o *outcome) ok() { o.attempted++ }

// fail records a failed operation; the first few reasons are kept for the
// log.
func (o *outcome) fail(format string, args ...any) {
	o.attempted++
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// check records one operation, failed when err is non-nil.
func (o *outcome) check(what string, err error) {
	if err != nil {
		o.fail("%s: %v", what, err)
		return
	}
	o.ok()
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints every measured metric by name with its unit and sample
// count, then, as the last line, the JSON result carrying exactly the
// catalog's metrics for the mode. A catalog metric the run did not measure
// is an error for end-to-end metrics and 0 for per-layer ones.
func report(w io.Writer, m *metrics, o *outcome, traced bool) error {
	for _, p := range o.problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
	fmt.Fprintf(w, "fail_ratio = %.6f ratio (%d of %d operations failed)\n",
		float64(o.failed)/math.Max(1, float64(o.attempted)), o.failed, o.attempted)
	for _, name := range m.order {
		line := fmt.Sprintf("%s = %.6g %s", name, m.vals[name], m.units[name])
		if n, ok := m.n[name]; ok {
			line += fmt.Sprintf(" (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	catalog := endToEnd
	if traced {
		catalog = perLayer
	}
	res := jsonResult{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, s := range catalog {
		v, ok := m.vals[s.Name]
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", s.Name)
		}
		if ok && m.units[s.Name] != s.Unit {
			return fmt.Errorf("metric %s measured in %s, catalog says %s", s.Name, m.units[s.Name], s.Unit)
		}
		res.Metrics[s.Name] = jsonMetric{Value: v, Unit: s.Unit}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}
