package fault

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/asm"
	"repro/internal/glift"
	"repro/internal/logic"
	"repro/internal/mcu"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// BatchResult is one scenario's outcome from RunBatch, comparable
// field-for-field with a scalar Run call on the same faults.
type BatchResult struct {
	Cycles uint64
	Err    error
}

// stuckLane is a StuckFF lowered for batched execution: instead of
// rewiring the netlist (which would change it for every lane), the lane's
// Q bit is pinned to the constant after every clock edge. Q is sourceless,
// so the pin persists through evaluation passes — observably identical to
// the scalar rewiring, which latches the constant on each edge.
type stuckLane struct {
	q   netlist.NetID
	sig logic.Sig
}

func lowerStuckFF(d *mcu.Design, f StuckFF) (stuckLane, error) {
	if f.Value != logic.Zero && f.Value != logic.One {
		return stuckLane{}, fmt.Errorf("fault: stuck value must be 0 or 1, got %s", f.Value)
	}
	q, err := f.qNet(d)
	if err != nil {
		return stuckLane{}, err
	}
	for i := range d.NL.DFFs {
		if d.NL.DFFs[i].Q == q {
			return stuckLane{q: q, sig: logic.S(f.Value, false)}, nil
		}
	}
	return stuckLane{}, fmt.Errorf("fault: net %q is not a flip-flop output", f.FF)
}

// RunBatch executes up to len(scenarios) concrete faulted runs in lockstep
// over the bitsliced backend, one scenario per lane (chunking internally at
// 64 lanes). Each lane gets its own program copy, memories, ports and
// parking detector; lanes retire from the batch as they park, error or get
// cancelled. Per-lane results — cycle counts and error text — are identical
// to running fault.Run once per scenario, which TestFaultBackendsAgreeBatched
// enforces over the whole fault corpus.
func RunBatch(ctx context.Context, img *asm.Image, maxCycles uint64, scenarios [][]Fault) ([]BatchResult, error) {
	results := make([]BatchResult, len(scenarios))
	for base := 0; base < len(scenarios); base += sim.BatchLanes {
		n := len(scenarios) - base
		if n > sim.BatchLanes {
			n = sim.BatchLanes
		}
		if err := runBatchChunk(ctx, img, maxCycles, scenarios[base:base+n], results[base:base+n]); err != nil {
			return nil, err
		}
	}
	return results, nil
}

func runBatchChunk(ctx context.Context, img *asm.Image, maxCycles uint64, scenarios [][]Fault, results []BatchResult) error {
	d := glift.SharedDesign()
	bsys, err := mcu.NewBatchSystem(d, len(scenarios))
	if err != nil {
		return err
	}
	stuck := make([][]stuckLane, len(scenarios))
	alive := uint64(0)
	for lane, faults := range scenarios {
		bsys.LoadLaneImage(lane, img)
		laneErr := func() error {
			for _, f := range faults {
				switch ft := f.(type) {
				case StuckFF:
					sl, err := lowerStuckFF(d, ft)
					if err != nil {
						return err
					}
					stuck[lane] = append(stuck[lane], sl)
				case PortX:
					if ft.Port < 0 || ft.Port >= mcu.NumPorts {
						return fmt.Errorf("fault: port index %d out of range", ft.Port)
					}
					w := sim.Word{XM: 0xffff}
					if ft.Taint {
						w.TT = 0xffff
					}
					bsys.SetLanePortIn(lane, ft.Port, w)
				case ROMCorrupt:
					if err := ft.corrupt(bsys.LaneROM(lane)); err != nil {
						return err
					}
				default:
					return fmt.Errorf("fault: %s cannot run batched", f.Describe())
				}
			}
			return nil
		}()
		if laneErr != nil {
			results[lane] = BatchResult{Err: laneErr}
			continue
		}
		alive |= 1 << lane
	}

	bsys.PowerOn()
	applyStuck := func(mask uint64) {
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			for _, sl := range stuck[lane] {
				bsys.B.SetLane(lane, sl.q, sl.sig)
			}
		}
	}
	applyStuck(alive)

	lastPC := make([]uint32, len(scenarios))
	samePC := make([]int, len(scenarios))
	for lane := range lastPC {
		lastPC[lane] = 1 << 20
	}
	start := bsys.Cycle
	for alive != 0 && bsys.Cycle-start < maxCycles {
		if bsys.Cycle&1023 == 0 && ctx.Err() != nil {
			for m := alive; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(m)
				results[lane] = BatchResult{
					Cycles: bsys.Cycle - start,
					Err:    fmt.Errorf("fault: concrete run cancelled at cycle %d: %w", bsys.Cycle, ctx.Err()),
				}
			}
			return nil
		}
		cis := bsys.EvalCycle(alive)
		for m := alive; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			ci := &cis[lane]
			if !ci.PmemOK {
				results[lane] = BatchResult{
					Cycles: bsys.Cycle - start,
					Err:    fmt.Errorf("fault: pc became unknown at cycle %d", bsys.Cycle),
				}
				alive &^= 1 << lane // scalar Run returns before committing
				continue
			}
			if ci.StateOK && ci.State == mcu.StFetch {
				if uint32(ci.PmemAddr) == lastPC[lane] {
					samePC[lane]++
					if samePC[lane] >= 2 {
						results[lane] = BatchResult{Cycles: bsys.Cycle - start} // parked on jmp $
						alive &^= 1 << lane
						continue
					}
				} else {
					samePC[lane] = 0
				}
				lastPC[lane] = uint32(ci.PmemAddr)
			}
		}
		bsys.CommitLanes(alive, cis)
		applyStuck(alive)
	}
	for m := alive; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		results[lane] = BatchResult{
			Cycles: bsys.Cycle - start,
			Err:    fmt.Errorf("fault: did not terminate in %d cycles", maxCycles),
		}
	}
	return nil
}
