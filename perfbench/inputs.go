package main

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// Every input a workload feeds the program is generated here from the run's
// --seed: the analysis order, the service arrival schedule and mix draws,
// the build-ID stamps, the concrete runs' port samples and the fault
// corpus. Each consumer draws from its own stream so that adding a draw to
// one cannot shift another.

// Input streams (the second PCG word).
const (
	streamOrder uint64 = iota + 1
	streamArrivals
	streamMix
	streamBuildID
	streamPorts
	streamFaults
	streamSample
)

func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// shuffled returns a seeded permutation of xs.
func shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// buildIDs issues distinct 16-bit build IDs in a seeded order: an affine
// bijection of the issue counter (odd multiplier), so no two jobs of one
// run share an ID and therefore a job key.
type buildIDs struct {
	mul, add uint16
	next     uint16
}

func newBuildIDs(seed uint64) *buildIDs {
	rng := newRNG(seed, streamBuildID)
	return &buildIDs{mul: uint16(rng.Uint32()) | 1, add: uint16(rng.Uint32())}
}

func (b *buildIDs) take() uint16 {
	b.next++
	return b.next*b.mul + b.add
}

// buildIDAddr is the program-memory word the stamp occupies: unused by
// every program here (they end far below it) and below the vector table.
const buildIDAddr = 0xffc0

// stamp places a build-ID word in unused program memory. The job key
// covers the whole image, so each stamp makes a distinct job, while the
// word is never fetched and so leaves the analysis report unchanged.
func stamp(src string, id uint16) string {
	return fmt.Sprintf("%s\n        .org 0x%04x\n        .word 0x%04x ; build id\n", src, buildIDAddr, id)
}

// jobKind classifies one service-mix arrival.
type jobKind uint8

const (
	kindCold jobKind = iota
	kindHit
	kindDup
	kindRepair
)

func (k jobKind) String() string {
	return [...]string{"cold", "hit", "dup", "repair"}[k]
}

// mixBlock is the service-mix composition per block of 100 arrivals. Kinds
// are drawn without replacement from each block, so every run carries the
// same shares and only their order depends on the seed.
//
// The cold share is the repository's own load generator's default:
// gliftload submits -n 200 jobs cycling over -distinct 12 programs, so 6 in
// 100 submissions are first sightings and the rest repeat an answered job.
// Of the repeats, 2 per block are repair jobs, about 40 a run, which gives
// repair_ms_p50 some twenty samples beyond it (1 per block would sit at the
// ten-sample floor), and 1 is a duplicate of the latest cold job, enough to
// exercise coalescing about twenty times a run. The other 91 are plain
// re-submissions.
var mixBlock = [...]int{kindCold: 6, kindHit: 91, kindDup: 1, kindRepair: 2}

// offeredRate is the service-mix arrival rate in jobs per second: with
// mixBlock's cold and repair shares it keeps gliftd's two analysis workers
// about a quarter busy at the commit that introduced the benchmark (at half
// busy, queueing amplified the host's slowdowns; see README.md).
const offeredRate = 100.0

// arrival is one scheduled service-mix submission.
type arrival struct {
	at   time.Duration // offset from the start of the measured window
	kind jobKind
}

// schedule draws an open-loop Poisson arrival sequence at offeredRate over
// window, with kinds dealt from shuffled mixBlock decks.
func schedule(seed uint64, window time.Duration) []arrival {
	times := newRNG(seed, streamArrivals)
	kinds := newRNG(seed, streamMix)
	var deck []jobKind
	var out []arrival
	t := time.Duration(0)
	for {
		t += time.Duration(times.ExpFloat64() / offeredRate * float64(time.Second))
		if t >= window {
			return out
		}
		if len(deck) == 0 {
			for k, n := range mixBlock {
				for i := 0; i < n; i++ {
					deck = append(deck, jobKind(k))
				}
			}
			deck = shuffled(kinds, deck)
		}
		out = append(out, arrival{at: t, kind: deck[0]})
		deck = deck[1:]
	}
}

// lfsr is the run430 port-sample generator: the same 16-bit Fibonacci LFSR,
// seeded from the run seed (never zero).
type lfsr uint16

func newLFSR(seed uint64) lfsr {
	return lfsr(uint16(newRNG(seed, streamPorts).Uint32()) | 1)
}

func (l *lfsr) next() uint16 {
	v := uint16(*l)
	bit := (v>>0 ^ v>>2 ^ v>>3 ^ v>>5) & 1
	v = v>>1 | bit<<15
	*l = lfsr(v)
	return v
}
