package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/mcu"
	"repro/internal/sim"
)

// fault-batch runs fault.RunBatch over seeded fault campaigns: one call per
// 64-scenario batch (one bitsliced lane each) on one benchmark image. The
// images are the seven fork-free benchmark systems made one-shot (the task
// parks when done instead of looping back), so a clean lane parks and a
// faulted one parks, runs out of budget or loses its PC — all of them
// outcomes, compared against sequential fault.Run on a seeded sample.

// faultBudget is each scenario's cycle budget: the longest clean task
// (mult) parks after about 1,500 cycles.
const faultBudget = 2000

// batchMix is the scenario composition of one batch. Besides the drawn
// scenarios every batch carries one unpark fault (see faultImage).
var batchMix = struct{ clean, stuck, portX, rom, double int }{clean: 4, stuck: 24, portX: 12, rom: 19, double: 4}

// faultImage is one benchmark system the campaign corrupts. unpark flips
// the parking jump back into the scaffold's loop to the system code, so
// that lane never parks: every batch then runs its full cycle budget and
// costs the same whatever else the seed draws.
type faultImage struct {
	name   string
	img    *asm.Image
	unpark fault.ROMCorrupt
}

// imageWord reads one assembled word.
func imageWord(img *asm.Image, addr uint16) (uint16, bool) {
	for _, seg := range img.Segments {
		if i := int(addr-seg.Addr) / 2; addr >= seg.Addr && i < len(seg.Words) {
			return seg.Words[i], true
		}
	}
	return 0, false
}

// faultImages assembles the one-shot fork-free benchmark systems.
func faultImages() ([]faultImage, error) {
	var out []faultImage
	for _, name := range straightBenchmarks {
		looping := bench.Source(bench.ByName(name))
		loopImg, err := asm.AssembleSource(looping)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		img, err := asm.AssembleSource(strings.Replace(looping, "task_done: jmp sysloop", "task_done: jmp task_done", 1))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		done, err := img.ResolveSymbol("task_done")
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		park, ok1 := imageWord(img, done)
		loop, ok2 := imageWord(loopImg, done)
		if !ok1 || !ok2 || park == loop {
			return nil, fmt.Errorf("%s: no parking jump at task_done", name)
		}
		out = append(out, faultImage{name: name, img: img, unpark: fault.ROMCorrupt{Addr: done, Xor: park ^ loop}})
	}
	return out, nil
}

// faultCorpus draws one batch of scenarios against im.
func faultCorpus(rng *rand.Rand, d *mcu.Design, im faultImage) [][]fault.Fault {
	regs := map[string]int{"pc": len(d.PC), "sr": len(d.SR)}
	names := []string{"pc", "sr"}
	for r := 4; r < 16; r++ {
		name := fmt.Sprintf("r%d", r)
		regs[name] = len(d.Regs[r])
		names = append(names, name)
	}
	stuck := func() fault.Fault {
		reg := names[rng.IntN(len(names))]
		return fault.StuckFF{FF: fmt.Sprintf("%s:%d", reg, rng.IntN(regs[reg])), Value: randomLevel(rng)}
	}
	var words []uint16
	for _, seg := range im.img.Segments {
		for i := range seg.Words {
			words = append(words, seg.Addr+uint16(2*i))
		}
	}
	rom := func() fault.Fault {
		f := fault.ROMCorrupt{Addr: words[rng.IntN(len(words))]}
		switch rng.IntN(3) {
		case 0:
			f.Xor = uint16(rng.IntN(0xffff)) + 1
		case 1:
			f.MakeX = uint16(rng.IntN(0xffff)) + 1
		default:
			f.Taint = true
		}
		return f
	}
	out := [][]fault.Fault{{im.unpark}}
	for i := 0; i < batchMix.clean; i++ {
		out = append(out, nil)
	}
	for i := 0; i < batchMix.stuck; i++ {
		out = append(out, []fault.Fault{stuck()})
	}
	for i := 0; i < batchMix.portX; i++ {
		out = append(out, []fault.Fault{fault.PortX{Port: rng.IntN(mcu.NumPorts), Taint: rng.IntN(2) == 0}})
	}
	for i := 0; i < batchMix.rom; i++ {
		out = append(out, []fault.Fault{rom()})
	}
	for i := 0; i < batchMix.double; i++ {
		out = append(out, []fault.Fault{stuck(), rom()})
	}
	return shuffled(rng, out)
}

func randomLevel(rng *rand.Rand) logic.V {
	if rng.IntN(2) == 0 {
		return logic.Zero
	}
	return logic.One
}

// sameResult compares a batched lane with its sequential reference.
func sameResult(b fault.BatchResult, cycles uint64, err error) error {
	be, se := "", ""
	if b.Err != nil {
		be = b.Err.Error()
	}
	if err != nil {
		se = err.Error()
	}
	if b.Cycles != cycles || be != se {
		return fmt.Errorf("batched (%d cycles, %q) != sequential (%d cycles, %q)", b.Cycles, be, cycles, se)
	}
	return nil
}

// runFaults measures fault-batch.
func runFaults(ctx context.Context, cfg *config) (*metrics, *outcome, error) {
	m, o := newMetrics(), &outcome{}
	var d *mcu.Design
	var imgs []faultImage
	setup, err := timeSetup(setupReps, func() error {
		d = mcu.Build()
		var err error
		imgs, err = faultImages()
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	m.set("setup_s", "s", setup, setupReps)

	rng := newRNG(cfg.seed, streamFaults)
	pick := newRNG(cfg.seed, streamSample)
	order := shuffled(rng, imgs)
	var lat []time.Duration
	var busy time.Duration
	var scenarios, laneCycles, batchCycles uint64
	var chrome chromeTrace
	// Whole rounds over the images, so every run weighs them equally.
	batches := 0
	start := time.Now()
	for batches%len(order) != 0 || batches == 0 || time.Since(start) < cfg.window {
		im := order[batches%len(order)]
		corpus := faultCorpus(rng, d, im)
		t0 := time.Now()
		res, err := fault.RunBatch(ctx, im.img, faultBudget, corpus)
		dt := time.Since(t0)
		batches++
		if err != nil {
			for range corpus {
				o.fail("%s batch: %v", im.name, err)
			}
			continue
		}
		lat = append(lat, dt)
		busy += dt
		scenarios += uint64(len(corpus))
		var live, longest uint64
		for _, r := range res {
			live += r.Cycles
			longest = max(longest, r.Cycles)
		}
		laneCycles += live
		batchCycles += longest
		chrome.events = append(chrome.events, chromeEvent{Name: im.name, Ph: "X", TS: usf(t0.Sub(start)), Dur: usf(dt),
			PID: 1, TID: 1, Args: map[string]any{"scenarios": len(corpus), "cycles": longest, "lane_cycles": live}})

		// Check a seeded sample lane against the sequential harness.
		k := pick.IntN(len(corpus))
		n, err := fault.Run(ctx, im.img, faultBudget, corpus[k]...)
		if bad := sameResult(res[k], n, err); bad != nil {
			o.fail("%s scenario %d: %v", im.name, k, bad)
		} else {
			o.ok()
		}
		for range corpus[1:] {
			o.ok()
		}
	}
	m.percentile("result_ms_p50", "ms", durs(lat, ms), 0.5)
	m.percentile("result_ms_p90", "ms", durs(lat, ms), 0.9)
	m.set("sim_cycles_per_s", "cycles/s", float64(laneCycles)/busy.Seconds(), -1)
	m.set("peak_rss_mb", "MiB", peakRSS("self"), -1)
	m.set("fault_scenarios_per_s", "1/s", float64(scenarios)/busy.Seconds(), -1)
	if !cfg.traced {
		return m, o, nil
	}

	m.set("fault.batches", "count", float64(batches), -1)
	m.set("fault.lane_occupancy", "ratio", float64(laneCycles)/float64(uint64(sim.BatchLanes)*batchCycles), -1)
	var lt layerTimer
	var all []*mcu.Snapshot
	var snapBytes int64
	for _, im := range imgs {
		sys, states, err := concreteStates(d, im.img)
		if err != nil {
			return nil, nil, err
		}
		snapBytes = sys.SnapshotBytes()
		lt.timeStates(sys, states)
		all = append(all, states...)
	}
	if err := lt.timeBatch(d, all); err != nil {
		return nil, nil, err
	}
	lt.record(m, d, snapBytes)
	return m, o, chrome.write(cfg.tracePath())
}

// concreteStates runs a clean image concretely (as fault.Run does, without
// faults) and samples a machine state every few dozen cycles until it
// parks.
func concreteStates(d *mcu.Design, img *asm.Image) (*mcu.System, []*mcu.Snapshot, error) {
	sys, err := mcu.NewSystem(d)
	if err != nil {
		return nil, nil, err
	}
	img.Place(func(a, w uint16) { sys.ROM.StoreWord(a, sim.ConcreteWord(w)) })
	sys.SetResetVector(img.Entry)
	sys.PowerOn()
	var states []*mcu.Snapshot
	lastPC := -1
	for sys.Cycle < faultBudget {
		if sys.Cycle%37 == 0 {
			states = append(states, sys.Snapshot())
		}
		ci := sys.EvalCycle(nil)
		if !ci.PmemOK {
			return nil, nil, fmt.Errorf("clean run: pc unknown at cycle %d", sys.Cycle)
		}
		if ci.StateOK && ci.State == mcu.StFetch {
			if int(ci.PmemAddr) == lastPC {
				break // parked
			}
			lastPC = int(ci.PmemAddr)
		}
		sys.Commit(ci)
	}
	return sys, states, nil
}
