package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/glift"
	"repro/internal/mcu"
)

// The Table-2 benchmarks split by control flow: the six whose branches
// depend on tainted input (fork-heavy exploration) and the seven written
// branch-free over tainted data (one path each).
var (
	forkBenchmarks     = []string{"binSearch", "div", "inSort", "intAVG", "tHold", "Viterbi"}
	straightBenchmarks = []string{"mult", "rle", "intFilt", "tea8", "FFT", "ConvEn", "autocorr"}
)

// concreteBudget is the cycle budget of one straightline concrete run:
// short enough that a 20 s run completes some sixteen passes, so that
// result_ms_p90 has at least ten of the pass's analyses beyond it.
const concreteBudget = 1000

// program is one analysis input with its reference report digest.
type program struct {
	name string
	src  string
	img  *asm.Image
	pol  *glift.Policy
	want string
}

// benchPolicy is the Table-2 labelling gliftcheck users give on the command
// line (-tainted-in 1 -tainted-out 2 -tainted-code task_start:task_end
// -tainted-data 0x0400:0x0800).
func benchPolicy(img *asm.Image) (*glift.Policy, error) {
	lo, err := img.ResolveSymbol("task_start")
	if err != nil {
		return nil, err
	}
	hi, err := img.ResolveSymbol("task_end")
	if err != nil {
		return nil, err
	}
	return &glift.Policy{
		Name:            "integrity",
		TaintedInPorts:  []int{0},
		TaintedOutPorts: []int{1},
		TaintedCode:     []glift.AddrRange{{Lo: lo, Hi: hi}},
		TaintedData:     []glift.AddrRange{{Lo: bench.PartLo, Hi: bench.PartLo + bench.PartSize}},
	}, nil
}

// engineInputs is the analysis workloads' set-up: synthesize the design
// and assemble each benchmark system, as one gliftcheck invocation per
// program would.
func engineInputs(names []string, golden map[string]string) (*mcu.Design, []program, error) {
	d := mcu.Build()
	progs := make([]program, 0, len(names))
	for _, name := range names {
		b := bench.ByName(name)
		if b == nil {
			return nil, nil, fmt.Errorf("no benchmark %q", name)
		}
		src := bench.Source(b)
		img, err := asm.AssembleSource(src)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		pol, err := benchPolicy(img)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		progs = append(progs, program{name: name, src: src, img: img, pol: pol, want: golden[name]})
	}
	return d, progs, nil
}

// Set-up repetitions per run (setup_s is their median): many for the
// in-process workloads, whose set-up takes 6-12 ms, so that a run
// spends about a second on it and a slow moment of the host barely moves
// the median; fewer for service-mix, whose set-up starts a daemon.
const (
	setupReps        = 101
	serviceSetupReps = 5
)

// timeSetup runs f reps times, each after a garbage collection so that no
// repetition pays for its predecessor's garbage, and returns the median.
func timeSetup(reps int, f func() error) (float64, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// analyze runs one analysis and checks its report against the reference.
func analyze(ctx context.Context, d *mcu.Design, p *program, opt *glift.Options) (*glift.Report, error) {
	rep, err := glift.AnalyzeContextOn(ctx, d, p.img, p.pol, opt)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	if err := checkReport(rep.JSON(), p.want); err != nil {
		return rep, fmt.Errorf("%s: %w", p.name, err)
	}
	return rep, nil
}

// runEngine measures explore-fork (names = forkBenchmarks) or, with
// concrete set, straightline: the analyses at default options, plus a
// concrete run of each program. The results are the analyses; the
// simulation rate is the concrete runs' when there are any.
func runEngine(ctx context.Context, cfg *config, names []string, concrete bool) (*metrics, *outcome, error) {
	m, o := newMetrics(), &outcome{}
	golden, err := loadGolden(cfg.root)
	if err != nil {
		return nil, nil, err
	}
	var d *mcu.Design
	var progs []program
	setup, err := timeSetup(setupReps, func() error {
		var err error
		d, progs, err = engineInputs(names, golden)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	m.set("setup_s", "s", setup, setupReps)
	order := shuffled(newRNG(cfg.seed, streamOrder), progs)

	if cfg.traced {
		var chrome chromeTrace
		if err := traceEngine(ctx, m, o, d, order, &chrome); err != nil {
			return nil, nil, err
		}
		return m, o, chrome.write(cfg.tracePath())
	}

	var runs []*concreteRun
	if concrete {
		l := newLFSR(cfg.seed)
		for i := range order {
			r, err := prepareConcrete(&order[i], &l, concreteBudget)
			if err != nil {
				return nil, nil, err
			}
			runs = append(runs, r)
		}
	}

	var lat []time.Duration
	var cycles, concCycles uint64
	var analysisWall, concWall time.Duration
	sets := 0
	start := time.Now()
	for sets == 0 || time.Since(start) < cfg.window {
		for i := range order {
			t0 := time.Now()
			rep, err := analyze(ctx, d, &order[i], nil)
			dt := time.Since(t0)
			o.check("analyze", err)
			lat = append(lat, dt)
			analysisWall += dt
			if rep != nil {
				cycles += rep.Stats.Cycles
			}
			if concrete {
				t0 = time.Now()
				n, err := runs[i].run(d)
				concWall += time.Since(t0)
				o.check("concrete run", err)
				concCycles += n
			}
		}
		sets++
	}
	m.percentile("result_ms_p50", "ms", durs(lat, ms), 0.5)
	m.percentile("result_ms_p90", "ms", durs(lat, ms), 0.9)
	m.set("analyze_wall_s", "s", analysisWall.Seconds()/float64(sets), sets)
	if concrete {
		m.set("sim_cycles_per_s", "cycles/s", float64(concCycles)/concWall.Seconds(), -1)
	} else {
		m.set("sim_cycles_per_s", "cycles/s", float64(cycles)/analysisWall.Seconds(), -1)
	}
	m.set("peak_rss_mb", "MiB", peakRSS("self"), -1)
	return m, o, nil
}

// captureTarget is roughly how many machine states a traced analysis
// samples for the layer timings.
const captureTarget = 48

// traceEngine is the traced run of an analysis workload: per program an
// untraced sequential analysis (glift.seq_wall_s), an untraced analysis at
// default options (for the worker speed-up), then the traced analysis
// whose spans and sampled states give the glift, sim and mcu metrics. The
// analyses are appended to chrome.
func traceEngine(ctx context.Context, m *metrics, o *outcome, d *mcu.Design, progs []program, chrome *chromeTrace) error {
	var seqWall, defWall time.Duration
	var st glift.Stats
	violations := 0
	var spans spanStats
	var lt layerTimer
	var all []*mcu.Snapshot
	var snapBytes int64
	for i := range progs {
		p := &progs[i]
		t0 := time.Now()
		seq, err := analyze(ctx, d, p, &glift.Options{Workers: 1})
		seqWall += time.Since(t0)
		o.check("analyze sequential", err)
		if seq == nil {
			continue
		}
		t0 = time.Now()
		_, err = analyze(ctx, d, p, nil)
		defWall += time.Since(t0)
		o.check("analyze", err)

		tr, rep, err := traceAnalysis(func(opt *glift.Options) (*glift.Report, error) {
			return analyze(ctx, d, p, opt)
		}, p.name, seq.Stats.Cycles/captureTarget+1)
		o.check("analyze traced", err)
		if rep == nil {
			continue
		}
		addStats(&st, rep.Stats)
		violations += len(rep.Violations)
		spans.add(tr)
		chrome.addAnalysis(tr)

		if tr.sys == nil {
			continue // no cycle evaluated: nothing sampled
		}
		snapBytes = tr.sys.SnapshotBytes()
		lt.timeStates(tr.sys, tr.captured)
		all = append(all, tr.captured...)
	}
	if err := lt.timeBatch(d, all); err != nil {
		return err
	}
	lt.record(m, d, snapBytes)
	recordGliftCounts(m, st, violations)
	spans.record(m)
	m.set("glift.seq_wall_s", "s", seqWall.Seconds(), -1)
	m.set("glift.trace_overhead", "ratio", spans.wall.Seconds()/seqWall.Seconds()-1, -1)
	m.set("glift.worker_speedup", "ratio", seqWall.Seconds()/defWall.Seconds(), -1)
	return nil
}

func addStats(acc *glift.Stats, s glift.Stats) {
	acc.Cycles += s.Cycles
	acc.Paths += s.Paths
	acc.Forks += s.Forks
	acc.Prunes += s.Prunes
	acc.Merges += s.Merges
	acc.TableStates += s.TableStates
}

// recordGliftCounts sets the exploration work counts, exact and
// deterministic for a fixed program set.
func recordGliftCounts(m *metrics, st glift.Stats, violations int) {
	m.set("glift.cycles", "count", float64(st.Cycles), -1)
	m.set("glift.paths", "count", float64(st.Paths), -1)
	m.set("glift.forks", "count", float64(st.Forks), -1)
	m.set("glift.prunes", "count", float64(st.Prunes), -1)
	m.set("glift.merges", "count", float64(st.Merges), -1)
	m.set("glift.table_states", "count", float64(st.TableStates), -1)
	m.set("glift.violations", "count", float64(violations), -1)
	ratio := 0.0
	if st.Paths > 0 {
		ratio = float64(st.Prunes) / float64(st.Paths)
	}
	m.set("glift.prune_ratio", "ratio", ratio, -1)
}
