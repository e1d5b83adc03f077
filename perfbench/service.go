package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/glift"
	"repro/internal/mcu"
	"repro/internal/repair"
	"repro/internal/service"
	"repro/internal/service/client"
)

// service-mix drives a live gliftd over HTTP, open loop: arrivals come on
// a seeded Poisson schedule at offeredRate whether or not earlier jobs have
// finished, and every job is timed from its scheduled send time to the
// moment the client holds its checked final answer. The generator uses two
// HTTP connections (one per goroutine): the sender submits without
// waiting, and the poller fetches unfinished jobs until they are done.

// leakySrc is the repair subject: a tainted task that stores through an
// index read from the tainted port, so the store can land anywhere in RAM
// until the repair loop masks the index into the tainted partition.
const leakySrc = `tstart: mov &0x0020, r15
        mov #0x0200, r14
        add r15, r14
        mov #500, 0(r14)
done:   jmp done
tend:
`

// jobSpec is one distinct program a job can carry, with its reference:
// for a repair job, want is the digest of its final round's report.
type jobSpec struct {
	program
	policy   service.PolicyRequest
	repair   bool
	wantCode int // HTTP status of the verdict
	rounds   int // repair jobs: the reference round count
}

// request builds the submission for spec stamped with build ID id.
func (s *jobSpec) request(id uint16) *service.JobRequest {
	req := &service.JobRequest{Source: stamp(s.src, id), Policy: s.policy}
	if s.repair {
		req.Mode = "repair"
		req.Repair = &service.RepairRequest{TaintedCode: []string{"tstart:tend"}}
	}
	return req
}

// policyRequest is pol in wire form (numeric ranges).
func policyRequest(pol *glift.Policy) service.PolicyRequest {
	ranges := func(rs []glift.AddrRange) []service.RangeRequest {
		out := make([]service.RangeRequest, len(rs))
		for i, r := range rs {
			out[i] = service.RangeRequest{Lo: r.Lo, Hi: r.Hi}
		}
		return out
	}
	return service.PolicyRequest{
		Name: pol.Name, TaintedInPorts: pol.TaintedInPorts, TaintedOutPorts: pol.TaintedOutPorts,
		TaintedCode: ranges(pol.TaintedCode), TaintedData: ranges(pol.TaintedData),
	}
}

// verdictCode is the HTTP status gliftd answers a finished job with.
func verdictCode(v glift.Verdict) int {
	if v == glift.Violations {
		return http.StatusConflict
	}
	return http.StatusOK
}

// servicePrograms builds the job pool. Cold analyses draw a benchmark and
// a variant: the seven fork-free Table-2 benchmarks (whose targeted-
// protected build is the unmodified program — the analysis finds nothing
// to protect) and the leaky subject, unmodified (violations) or as the
// repair loop's masked program (verified). Repair jobs carry the leaky
// subject. References are the committed golden digests, or in-process
// analyses for the leaky subject.
func servicePrograms(ctx context.Context, golden map[string]string) (cold []*jobSpec, rep *jobSpec, err error) {
	_, progs, err := engineInputs(straightBenchmarks, golden)
	if err != nil {
		return nil, nil, err
	}
	for _, p := range progs {
		s := &jobSpec{program: p, policy: policyRequest(p.pol), wantCode: http.StatusOK}
		cold = append(cold, s, s) // unmodified and targeted-protected: one program
	}

	data := []glift.AddrRange{{Lo: bench.PartLo, Hi: bench.PartLo + bench.PartSize}}
	res, err := repair.Run(ctx, &repair.Spec{
		Source:     leakySrc,
		Policy:     glift.Policy{Name: "integrity", TaintedInPorts: []int{0}, TaintedData: data},
		CodeRanges: []string{"tstart:tend"},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("leaky subject: %w", err)
	}
	for _, v := range []struct{ name, src string }{{"leaky", leakySrc}, {"leaky-masked", res.Asm}} {
		img, err := asm.AssembleSource(v.src)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", v.name, err)
		}
		code, err := repair.ResolveRanges([]string{"tstart:tend"}, img)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", v.name, err)
		}
		p := program{name: v.name, src: v.src, img: img,
			pol: &glift.Policy{Name: "integrity", TaintedInPorts: []int{0}, TaintedCode: code, TaintedData: data}}
		r, err := glift.AnalyzeContext(ctx, img, p.pol, nil)
		if err != nil {
			return nil, nil, err
		}
		if p.want, err = digest(r.JSON()); err != nil {
			return nil, nil, err
		}
		cold = append(cold, &jobSpec{program: p, policy: policyRequest(p.pol), wantCode: verdictCode(r.Verdict())})
	}
	masked := cold[len(cold)-1]
	rep = &jobSpec{program: program{name: "leaky-repair", src: leakySrc, want: masked.want}, repair: true,
		wantCode: masked.wantCode, rounds: len(res.Rounds),
		policy: policyRequest(&glift.Policy{Name: "integrity", TaintedInPorts: []int{0}, TaintedData: data})}
	return cold, rep, nil
}

// daemon is a gliftd process under test.
type daemon struct {
	cmd  *exec.Cmd
	log  *os.File
	base string
	pid  string
}

// buildDaemon builds cmd/gliftd from the repository source.
func buildDaemon(cfg *config) (string, error) {
	bin, err := filepath.Abs(filepath.Join(cfg.outDir, "gliftd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/gliftd")
	cmd.Dir = cfg.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building gliftd: %v\n%s", err, out)
	}
	return bin, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon runs gliftd at default flags with persistence into an empty
// store directory and waits until it answers /healthz.
func startDaemon(ctx context.Context, bin, storeDir, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(storeDir); err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-store-dir", storeDir)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, log: logf, base: "http://" + addr, pid: strconv.Itoa(cmd.Process.Pid)}
	probe := dial(d.base, time.Second)
	defer probe.close()
	deadline := time.Now().Add(20 * time.Second)
	for !probe.Healthy(ctx) {
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("gliftd did not become healthy (log: %s)", logPath)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return d, nil
}

// stop terminates the daemon and waits for it to exit.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // it may already be gone; Wait reports either way
	done := make(chan struct{})
	go func() {
		d.cmd.Wait() //nolint:errcheck // exit status after SIGTERM is not interesting
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // best effort after the drain bound
		<-done
	}
	d.log.Close()
}

// cpuSeconds reads a process's user+system CPU time from /proc (clock
// ticks at the Linux USER_HZ of 100).
func cpuSeconds(pid string) (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return 0, err
	}
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / 100, nil
}

// conn is a gliftd client on one HTTP connection of its own, which never
// retries: a refusal (429/503) is an outcome to count. The load holds at
// most two open at once (the host's CPU count), so every other user closes
// its connection before the load starts.
type conn struct {
	*client.Client
	tr *http.Transport
}

func dial(base string, timeout time.Duration) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &conn{
		Client: client.New(client.Config{BaseURL: base, MaxAttempts: 1, HTTPClient: &http.Client{Transport: tr, Timeout: timeout}}),
		tr:     tr,
	}
}

// close drops the idle connection.
func (c *conn) close() { c.tr.CloseIdleConnections() }

// job is one submission and its fate.
type job struct {
	kind       jobKind
	spec       *jobSpec
	req        *service.JobRequest
	id         string
	sched      time.Time
	sent, ack  time.Time
	done       time.Time
	cacheHit   bool
	err        error
	stages     service.StageTimesJSON
	repairRnds int
}

// verify checks a finished job's answer against its reference.
func (j *job) verify(res *client.Result) error {
	if res.Code != j.spec.wantCode {
		return fmt.Errorf("%s %s: HTTP %d, want %d", j.kind, j.spec.name, res.Code, j.spec.wantCode)
	}
	if j.spec.repair {
		var rj repair.ResultJSON
		if err := json.Unmarshal(res.RawRepair, &rj); err != nil {
			return fmt.Errorf("repair payload: %w", err)
		}
		if err := rj.Validate(); err != nil {
			return err
		}
		j.repairRnds = len(rj.Rounds)
		if len(rj.Rounds) != j.spec.rounds {
			return fmt.Errorf("repair took %d rounds, reference %d", len(rj.Rounds), j.spec.rounds)
		}
		return checkReport(rj.Report, j.spec.want)
	}
	if res.Status.Report == nil {
		return fmt.Errorf("%s %s: no report", j.kind, j.spec.name)
	}
	return checkReport(*res.Status.Report, j.spec.want)
}

// serviceSetup is one set-up of the service: build gliftd (a no-op when up
// to date), start it to healthy, and warm its cache with one answered job
// per pool program, which later re-submissions can hit.
func serviceSetup(ctx context.Context, cfg *config, cold []*jobSpec, ids *buildIDs) (*daemon, []*job, error) {
	bin, err := buildDaemon(cfg)
	if err != nil {
		return nil, nil, err
	}
	d, err := startDaemon(ctx, bin, filepath.Join(cfg.outDir, "gliftd-store"), filepath.Join(cfg.outDir, "gliftd.log"))
	if err != nil {
		return nil, nil, err
	}
	c := dial(d.base, time.Minute)
	defer c.close()
	var warm []*job
	seen := map[*jobSpec]bool{}
	for _, s := range cold {
		if seen[s] {
			continue
		}
		seen[s] = true
		j := &job{kind: kindCold, spec: s, req: s.request(ids.take())}
		res, err := c.Submit(ctx, j.req, true)
		if err == nil {
			err = j.verify(res)
		}
		if err != nil {
			d.stop()
			return nil, nil, fmt.Errorf("warm-up %s: %w", s.name, err)
		}
		warm = append(warm, j)
	}
	return d, warm, nil
}

// resubmitAge is how long ago, by the schedule, a cold job must have been
// due before a re-submission may pick it: far beyond any cold latency, so
// the pick is a function of the schedule alone and almost always hits.
const resubmitAge = 2 * time.Second

// runLoad plays the arrival schedule against the daemon and returns every
// job once all have finished. Which program each arrival carries depends
// only on the seed: cold jobs walk shuffled decks of the pool, hits
// re-submit a seeded pick among the warm-up jobs and the cold jobs due at
// least resubmitAge earlier, and duplicates re-submit the latest cold job.
func runLoad(ctx context.Context, cfg *config, base string, arrivals []arrival, cold []*jobSpec, rep *jobSpec, warm []*job, ids *buildIDs) []*job {
	draw := newRNG(cfg.seed, streamSample)
	start := time.Now()
	jobs := make([]*job, len(arrivals))
	var deck []*jobSpec
	var colds []*job
	targets := append([]*job(nil), warm...)
	for i, a := range arrivals {
		j := &job{kind: a.kind, sched: start.Add(a.at)}
		for len(colds) > 0 && colds[0].sched.Add(resubmitAge).Before(j.sched) {
			targets, colds = append(targets, colds[0]), colds[1:]
		}
		switch a.kind {
		case kindCold:
			if len(deck) == 0 {
				deck = shuffled(draw, cold)
			}
			j.spec, deck = deck[0], deck[1:]
			j.req = j.spec.request(ids.take())
			colds = append(colds, j)
		case kindRepair:
			j.spec, j.req = rep, rep.request(ids.take())
		case kindHit:
			t := targets[draw.IntN(len(targets))]
			j.spec, j.req = t.spec, t.req
		case kindDup:
			t := targets[len(targets)-1]
			if len(colds) > 0 {
				t = colds[len(colds)-1]
			}
			j.spec, j.req = t.spec, t.req
		}
		jobs[i] = j
	}

	pending := make(chan *job, len(jobs))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // sender: submits on schedule without waiting for verdicts
		defer wg.Done()
		defer close(pending)
		c := dial(base, time.Minute)
		defer c.close()
		for _, j := range jobs {
			time.Sleep(time.Until(j.sched))
			j.sent = time.Now()
			res, err := c.Submit(ctx, j.req, false)
			j.ack = time.Now()
			switch {
			case err != nil:
				j.err = err
			case res.Code == http.StatusAccepted:
				j.id = res.Status.ID
				pending <- j
				continue
			default: // answered at once: a cache hit, or a refusal
				j.id, j.cacheHit = res.Status.ID, res.Status.CacheHit
				j.err = j.verify(res)
			}
			j.done = j.ack
		}
	}()
	go func() { // poller: fetches accepted jobs until each is done
		defer wg.Done()
		c := dial(base, time.Minute)
		defer c.close()
		var open []*job
		more := true
		for more || len(open) > 0 {
			if len(open) == 0 {
				j, ok := <-pending
				if !ok {
					break
				}
				open = append(open, j)
			}
		drain:
			for more {
				select {
				case j, ok := <-pending:
					if !ok {
						more = false
						break drain
					}
					open = append(open, j)
				default:
					break drain
				}
			}
			still := open[:0]
			for _, j := range open {
				res, err := c.Get(ctx, j.id)
				switch {
				case err != nil:
					j.err = err
				case res.Status.State == "done":
					j.cacheHit = res.Status.CacheHit
					j.err = j.verify(res)
				case res.Code == http.StatusOK:
					still = append(still, j)
					continue
				default:
					j.err = fmt.Errorf("GET /jobs/%s: HTTP %d", j.id, res.Code)
				}
				j.done = time.Now()
			}
			open = still
			if len(open) > 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	wg.Wait()
	return jobs
}

// runService measures service-mix; the traced run adds per-job stage
// timings, gliftd's counters and an in-process traced analysis of the pool.
func runService(ctx context.Context, cfg *config) (*metrics, *outcome, error) {
	ctx, cancel := context.WithTimeout(ctx, cfg.window+90*time.Second)
	defer cancel()
	m, o := newMetrics(), &outcome{}
	golden, err := loadGolden(cfg.root)
	if err != nil {
		return nil, nil, err
	}
	cold, rep, err := servicePrograms(ctx, golden)
	if err != nil {
		return nil, nil, err
	}
	ids := newBuildIDs(cfg.seed)
	var d *daemon
	var warm []*job
	setup, err := timeSetup(serviceSetupReps, func() error {
		if d != nil {
			d.stop()
		}
		var err error
		d, warm, err = serviceSetup(ctx, cfg, cold, ids)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	defer d.stop()
	defer os.RemoveAll(filepath.Join(cfg.outDir, "gliftd-store"))
	m.set("setup_s", "s", setup, serviceSetupReps)

	mc := dial(d.base, time.Minute)
	defer mc.close()
	before, err := mc.MetricsJSON(ctx)
	if err != nil {
		return nil, nil, err
	}
	mc.close()
	cpu0, err := cpuSeconds(d.pid)
	if err != nil {
		return nil, nil, err
	}
	arrivals := schedule(cfg.seed, cfg.window)
	t0 := time.Now()
	jobs := runLoad(ctx, cfg, d.base, arrivals, cold, rep, warm, ids)
	busy := time.Since(t0)
	cpu1, err := cpuSeconds(d.pid)
	if err != nil {
		return nil, nil, err
	}
	after, err := mc.MetricsJSON(ctx)
	if err != nil {
		return nil, nil, err
	}

	byKind := map[jobKind][]float64{}
	var late, ack []float64
	for _, j := range jobs {
		o.check(j.kind.String()+" "+j.spec.name, j.err)
		if j.err != nil {
			continue
		}
		k := j.kind
		if k == kindDup && j.cacheHit {
			k = kindHit // the original finished first: a plain re-submission
		}
		byKind[k] = append(byKind[k], ms(j.done.Sub(j.sched)))
		late = append(late, ms(j.sent.Sub(j.sched)))
		ack = append(ack, ms(j.ack.Sub(j.sent)))
	}
	m.percentile("result_ms_p50", "ms", byKind[kindCold], 0.5)
	m.percentile("result_ms_p90", "ms", byKind[kindCold], 0.9)
	m.set("sim_cycles_per_s", "cycles/s", float64(after.CyclesSimulated-before.CyclesSimulated)/busy.Seconds(), -1)
	m.set("peak_rss_mb", "MiB", peakRSS(d.pid), -1)
	m.percentile("hit_ms_p50", "ms", byKind[kindHit], 0.5)
	m.percentile("hit_ms_p99", "ms", byKind[kindHit], 0.99)
	m.percentile("repair_ms_p50", "ms", byKind[kindRepair], 0.5)
	m.set("dup_coalesced", "count", float64(len(byKind[kindDup])), -1)
	if !cfg.traced {
		return m, o, nil
	}

	m.percentile("loadgen.late_ms_p99", "ms", late, 0.99)
	m.percentile("client.ack_ms_p50", "ms", ack, 0.5)
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	m.set("service.hit_ratio", "ratio", float64(hits)/float64(max(1, hits+misses)), -1)
	m.set("service.coalesced", "count", float64(after.JobsCoalesced-before.JobsCoalesced), -1)
	m.set("service.rejected", "count", float64(after.JobsRejected-before.JobsRejected+
		after.DeadlineShed-before.DeadlineShed+after.QuotaRejected-before.QuotaRejected), -1)
	m.set("service.cpu_s", "s", cpu1-cpu0, -1)
	traceStages(ctx, mc, jobs, m, o)
	return m, o, traceServiceEngine(ctx, cfg, m, o, cold, jobs)
}

// traceStages fetches each job's terminal verdict event (its per-stage
// server timings) after the load has ended, and derives the service and
// client stage metrics.
func traceStages(ctx context.Context, c *conn, jobs []*job, m *metrics, o *outcome) {
	var queue, engine, persist, hit, delivery, roundMS, rounds []float64
	for _, j := range jobs {
		if j.err != nil || j.id == "" {
			continue
		}
		res, err := c.StreamToVerdict(ctx, j.id, nil)
		o.check("verdict event "+j.id, err)
		if err != nil {
			continue
		}
		st := res.Verdict.Stages
		j.stages = st
		if st.CacheHitNS > 0 {
			hit = append(hit, float64(st.CacheHitNS)/1e6)
			continue
		}
		if j.kind == kindDup {
			continue // coalesced: the stages are the original job's
		}
		queue = append(queue, float64(st.QueueWaitNS)/1e6)
		engine = append(engine, float64(st.EngineRunNS)/1e6)
		persist = append(persist, float64(st.PersistNS)/1e6)
		delivery = append(delivery, ms(j.done.Sub(j.sent))-float64(st.TotalNS)/1e6)
		if j.kind == kindRepair && j.repairRnds > 0 {
			rounds = append(rounds, float64(j.repairRnds))
			roundMS = append(roundMS, float64(st.EngineRunNS)/1e6/float64(j.repairRnds))
		}
	}
	m.percentile("service.queue_wait_ms_p50", "ms", queue, 0.5)
	m.percentile("service.queue_wait_ms_p90", "ms", queue, 0.9)
	m.percentile("service.engine_run_ms_p50", "ms", engine, 0.5)
	m.percentile("service.persist_ms_p50", "ms", persist, 0.5)
	m.percentile("service.persist_ms_p99", "ms", persist, 0.99)
	m.percentile("service.cache_hit_ms_p50", "ms", hit, 0.5)
	m.percentile("client.delivery_ms_p50", "ms", delivery, 0.5)
	m.percentile("repair.rounds", "count", rounds, 0.5)
	m.percentile("repair.round_ms_p50", "ms", roundMS, 0.5)
}

// traceServiceEngine runs the traced in-process analyses of the pool's
// programs (the engine work behind the cold jobs) for the glift, sim and
// mcu metrics, and writes the run's Chrome trace: the jobs on process 2,
// laid out from their scheduled times with their server stages in order
// from the send, then the analyses on process 1.
func traceServiceEngine(ctx context.Context, cfg *config, m *metrics, o *outcome, cold []*jobSpec, jobs []*job) error {
	var progs []program
	seen := map[*jobSpec]bool{}
	for _, s := range cold {
		if !seen[s] {
			seen[s] = true
			progs = append(progs, s.program)
		}
	}
	var chrome chromeTrace
	chrome.addJobs(jobs)
	if err := traceEngine(ctx, m, o, mcu.Build(), progs, &chrome); err != nil {
		return err
	}
	return chrome.write(cfg.tracePath())
}
