package main

import (
	"math/rand"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// inputs are everything a workload feeds its stack, generated here from
// the seed; the program under test sees only these.
type inputs struct {
	seed int64
	// ops is a closed loop's request stream: sector offset in the low 31
	// bits, write flag in the top bit. Streams of several clients (HTTP
	// tenants) are interleaved: client c of k takes ops[c], ops[c+k], ...
	ops []uint32
	// day is the open loop's unscaled base trace: one 24 h burst cycle of
	// the Cello-base profile (dayDur is shorter only when the whole run is
	// smaller than a day, as in the smoke test). genSeconds is what
	// tracegen.Generate took to make it.
	day        *trace.Trace
	dayDur     des.Time
	genSeconds float64
}

const writeBit = 1 << 31

func decodeOp(o uint32) (core.Op, int64) {
	if o&writeBit != 0 {
		return core.Write, int64(o &^ writeBit)
	}
	return core.Read, int64(o)
}

// genOps draws n closed-loop requests over a volume of dataSectors:
// readFrac-weighted reads at offsets with seek-locality index locality
// (the paper's micro-benchmarks use 3; 1 is uniform). The locality walk is
// the one Iometer-style generators use: with probability pl the next
// offset is a short hop from the last one, else a uniform jump.
func genOps(seed int64, n int, dataSectors int64, readFrac, locality float64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	span := float64(dataSectors - ioSectors)
	win := span / 256
	pl := (span/3 - span/(3*locality)) / (span/3 - win/4)
	if pl < 0 {
		pl = 0
	}
	cur := rng.Int63n(int64(span))
	ops := make([]uint32, n)
	for i := range ops {
		if rng.Float64() < pl {
			cur += int64((rng.Float64() - 0.5) * win)
			if cur < 0 {
				cur = -cur
			}
			if cur >= int64(span) {
				cur = int64(span) - 1
			}
		} else {
			cur = rng.Int63n(int64(span))
		}
		o := uint32(cur)
		if rng.Float64() >= readFrac {
			o |= writeBit
		}
		ops[i] = o
	}
	return ops
}

// genDay synthesizes one day of the Cello-base profile, uncached, or as
// much of a day as ops requests fill when that is less.
func genDay(in *inputs, ops int) {
	p := tracegen.CelloBase(in.seed)
	in.dayDur = 24 * des.Hour
	if d := des.Time(float64(ops) / p.MeanIOPS * float64(des.Second)); d < in.dayDur {
		in.dayDur = d
	}
	t0 := time.Now()
	in.day = tracegen.Generate(p.WithDuration(in.dayDur))
	in.genSeconds = time.Since(t0).Seconds()
}

// genScenario composes the cluster-chaos fault scenario: one whole-brick
// crash with recovery, one fail-slow window, one drive fail-stop (rebuilt
// onto the brick's spare), and one client load burst, inside
// [start, start+horizon].
func genScenario(seed int64, bricks, drives int, start, horizon des.Time) (chaos.Scenario, error) {
	sc, err := chaos.Generate(seed, chaos.Options{
		Bricks: bricks, DrivesPerBrick: drives,
		Start: start, Horizon: horizon,
		BrickCrashes: 1, SlowDrives: 1, DriveFails: 1, LoadBursts: 1,
	})
	if err != nil {
		return sc, err
	}
	return sc, sc.Validate(bricks, drives)
}
