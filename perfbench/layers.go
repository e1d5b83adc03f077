package main

import (
	"time"

	"repro/internal/mcu"
	"repro/internal/sim"
)

// Layer timings from outside: the public operations of sim and mcu,
// replayed on machine states sampled during the run. Each operation is
// timed on its own, so the samples are the layer's cost per call.

// layerTimer collects per-operation samples until each has enough.
type layerTimer struct {
	restoreEval, stepEval, batchEval []time.Duration
	evalCycle, commit                []time.Duration
	snapshot, restore                []time.Duration
	substate, merge                  []time.Duration
}

// minLayerSamples is how many timings each operation gets at least (the
// sampled states are cycled through as often as needed).
const minLayerSamples = 400

// timeStates runs the sim and mcu operations over states sampled from one
// program's run on sys.
func (lt *layerTimer) timeStates(sys *mcu.System, states []*mcu.Snapshot) {
	if len(states) == 0 {
		return
	}
	for n := 0; n < minLayerSamples; n += len(states) {
		for i, sn := range states {
			next := states[(i+1)%len(states)]

			// sim: restore flip-flops, then one evaluation (the engine's
			// path-resume cost).
			t0 := time.Now()
			sys.C.RestoreDFFState(sn.DFF)
			sys.C.Eval(nil)
			lt.restoreEval = append(lt.restoreEval, time.Since(t0))

			// mcu: whole-machine restore; one settled cycle; then the
			// next cycle's evaluation and commit.
			t0 = time.Now()
			sys.Restore(sn)
			lt.restore = append(lt.restore, time.Since(t0))
			sys.Commit(sys.EvalCycle(nil))
			t0 = time.Now()
			ci := sys.EvalCycle(nil)
			lt.evalCycle = append(lt.evalCycle, time.Since(t0))
			t0 = time.Now()
			sys.Commit(ci)
			lt.commit = append(lt.commit, time.Since(t0))

			// sim: a clock edge and the evaluation after it, from the
			// live state just committed.
			sys.EvalCycle(nil)
			t0 = time.Now()
			sys.C.Clock()
			sys.C.Eval(nil)
			lt.stepEval = append(lt.stepEval, time.Since(t0))

			t0 = time.Now()
			sys.Snapshot()
			lt.snapshot = append(lt.snapshot, time.Since(t0))

			// Table operations: widen a copy of this state to cover the
			// next one, then the full covering check against the result.
			c := sn.Clone()
			t0 = time.Now()
			c.MergeFrom(next)
			lt.merge = append(lt.merge, time.Since(t0))
			t0 = time.Now()
			next.SubstateOf(c)
			lt.substate = append(lt.substate, time.Since(t0))
		}
	}
}

// timeBatch times the batched counterpart of sim.step_eval: 64 lanes, each
// restored from a sampled state and settled, take a clock edge and one
// evaluation together.
func (lt *layerTimer) timeBatch(d *mcu.Design, states []*mcu.Snapshot) error {
	if len(states) == 0 {
		return nil
	}
	b, err := sim.NewBatchBackend(d.NL, sim.BatchLanes)
	if err != nil {
		return err
	}
	for i := 0; i < minLayerSamples/4; i++ {
		for lane := 0; lane < sim.BatchLanes; lane++ {
			b.RestoreLaneDFFState(lane, states[(i+lane)%len(states)].DFF)
		}
		b.Eval()
		b.Clock()
		t0 := time.Now()
		b.Eval()
		lt.batchEval = append(lt.batchEval, time.Since(t0))
	}
	return nil
}

// record sets the sim and mcu metrics.
func (lt *layerTimer) record(m *metrics, d *mcu.Design, snapshotBytes int64) {
	m.set("sim.gates", "count", float64(len(d.NL.Gates)), -1)
	m.percentile("sim.restore_eval_us_p50", "us", durs(lt.restoreEval, us), 0.5)
	m.percentile("sim.step_eval_us_p50", "us", durs(lt.stepEval, us), 0.5)
	m.percentile("sim.batch_eval_us_p50", "us", durs(lt.batchEval, us), 0.5)
	m.percentile("mcu.eval_cycle_us_p50", "us", durs(lt.evalCycle, us), 0.5)
	m.percentile("mcu.commit_us_p50", "us", durs(lt.commit, us), 0.5)
	m.percentile("mcu.snapshot_us_p50", "us", durs(lt.snapshot, us), 0.5)
	m.percentile("mcu.restore_us_p50", "us", durs(lt.restore, us), 0.5)
	m.percentile("mcu.substate_us_p50", "us", durs(lt.substate, us), 0.5)
	m.percentile("mcu.merge_us_p50", "us", durs(lt.merge, us), 0.5)
	m.set("mcu.snapshot_bytes", "bytes", float64(snapshotBytes), -1)
}
