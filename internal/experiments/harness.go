package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/stats"
)

// The multi-brick experiments (bigarray, chaos, slo-chaos, brick-loss)
// share one world: a closed-loop client on shard 0 of a des.Sharded, one
// brick per further shard, and an interconnect whose link latency is the
// engine's lookahead — nothing crosses between client and brick faster
// than the link carries it, which is the bound the epoch protocol needs.
// This file is that world's only copy; an experiment supplies its bricks,
// its draw-and-send, and its own tallies.

// bigLinkLat is the interconnect latency between the client and a brick —
// and therefore the sharded engine's lookahead window.
const bigLinkLat = 150 * des.Microsecond

// sendFn delivers fn on shard to at instant at, on behalf of shard from.
type sendFn = func(from, to int, at des.Time, fn func())

// buildFn wires one experiment's world onto the shards a driver hands it
// (sims[0] = client, sims[1+b] = brick b), schedules its priming event and
// returns the world for its results to be read from after the run.
type buildFn[C any] func(sims []*des.Sim, send sendFn) (C, error)

// runSharded builds a bricks+1-shard world on the epoch engine and runs it
// to quiescence at the given worker count (0 = one worker). It
// returns the world and the number of events executed across all shards.
func runSharded[C any](bricks, workers int, build buildFn[C]) (c C, events uint64, err error) {
	sh := des.NewSharded(bricks+1, bigLinkLat)
	if workers > 0 {
		if err := sh.SetWorkers(workers); err != nil {
			return c, 0, err
		}
	}
	sims := make([]*des.Sim, bricks+1)
	for i := range sims {
		sims[i] = sh.Shard(i)
	}
	if c, err = build(sims, sh.Send); err != nil {
		return c, 0, err
	}
	sh.Run()
	return c, sh.Processed(), nil
}

// genScenario generates the seeded chaos scenario for a cluster shape and
// checks every event's target against that shape.
func genScenario(seed int64, o chaos.Options) (chaos.Scenario, error) {
	sc, err := chaos.Generate(seed, o)
	if err != nil {
		return chaos.Scenario{}, err
	}
	return sc, sc.Validate(o.Bricks, o.DrivesPerBrick)
}

// clientLoop is the closed-loop client: outstanding requests in flight
// until ios have been issued, each completion reissuing, a chaos LoadBurst
// widening the window and narrowing it back. All of its state lives on
// shard 0 and is touched only by that shard's events.
//
// The embedding experiment sets attempt, which draws request seq's target
// and sends it; a retry calls the experiment's own send again with the
// same submitAt, so measured latency includes every stall the request
// suffered. Draw order is part of each experiment's pinned output: the
// loop never draws, and calls attempt exactly once per issued request, in
// issue order, before anything else happens to that request.
type clientLoop struct {
	sim         *des.Sim // shard 0
	ios         int
	outstanding int
	// window is the width of the p99 windows successful completions are
	// bucketed into; 0 keeps no windows.
	window  des.Time
	attempt func(seq int, submitAt des.Time)

	issued   int
	finished int
	shrink   int   // completions still to absorb after a burst ends
	latNs    int64 // successful-completion latency sum, integer ns so the sum is order-independent
	last     des.Time
	wins     [][]int64 // per-window successful-completion latencies (ns)
}

// prime fills the window. It runs as shard 0's first event so the
// cross-shard sends originate inside the epoch protocol.
func (l *clientLoop) prime() {
	for i := 0; i < l.outstanding; i++ {
		l.issue()
	}
}

// issue claims the next logical request, if any remain.
func (l *clientLoop) issue() {
	if l.issued >= l.ios {
		return
	}
	seq := l.issued
	l.issued++
	l.attempt(seq, l.sim.Now())
}

// burst is the client's chaos.Arm callback: a LoadBurst widens the loop by
// Factor extra requests for Duration, then that many completions are
// absorbed without a reissue to narrow it back.
func (l *clientLoop) burst(e chaos.Event) {
	if e.Kind != chaos.LoadBurst {
		return
	}
	extra := int(e.Factor)
	for i := 0; i < extra; i++ {
		l.issue()
	}
	l.sim.At(e.At+e.Duration, func() { l.shrink += extra })
}

// complete retires one logical request on shard 0, reissues (or absorbs a
// post-burst completion) and returns the request's latency for the
// experiment's own tallies. A failure consumes the slot too — the workload
// observes it, it does not paper over it — but stays out of the latency sum
// and the windows.
func (l *clientLoop) complete(submitAt des.Time, failed bool) des.Time {
	now := l.sim.Now()
	if now > l.last {
		l.last = now
	}
	l.finished++
	lat := now - submitAt
	if !failed {
		ns := int64(math.Round(float64(lat) * 1000))
		l.latNs += ns
		if l.window > 0 {
			w := int(now / l.window)
			for len(l.wins) <= w {
				l.wins = append(l.wins, nil)
			}
			l.wins[w] = append(l.wins[w], ns)
		}
	}
	if l.shrink > 0 {
		l.shrink--
	} else {
		l.issue()
	}
	return lat
}

// p99 returns each window's 99th-percentile latency in ns (0 for a window
// with no successful completion).
func (l *clientLoop) p99() []int64 {
	out := make([]int64, len(l.wins))
	for i, w := range l.wins {
		out[i] = stats.NearestRank(w, 99, 100)
	}
	return out
}

// drained reports an error unless every issued request completed.
func (l *clientLoop) drained(what string) error {
	if l.finished != l.ios {
		return fmt.Errorf("experiments: %s drained at %d/%d completions", what, l.finished, l.ios)
	}
	return nil
}

// p99Series renders windowed p99s (ns) as a curve of window-end time in ms
// against latency in ms.
func p99Series(label string, window des.Time, p99 []int64) Series {
	s := Series{Label: label}
	for i, ns := range p99 {
		s.Add(float64(window)*float64(i+1)/1000, float64(ns)/1e6)
	}
	return s
}

// drawBrickOp is the (brick, offset, op) draw of the experiments that
// route requests themselves, in the order their pinned outputs depend on.
func drawBrickOp(rng *rand.Rand, bricks int, vol int64, readFrac float64) (int, int64, core.Op) {
	b := rng.Intn(bricks)
	off := rng.Int63n(vol)
	op := core.Read
	if rng.Float64() >= readFrac {
		op = core.Write
	}
	return b, off, op
}

// readLoop runs the single-array closed loop the degraded-rebuild,
// fail-slow and scrub experiments measure: four outstanding 8-sector
// uniform random reads until ios have completed, each Result handed to
// done, then a drain so background work (rebuild, scrub, repairs) retires.
// It returns the instant the last read completed, before the drain.
func readLoop(what string, sim *des.Sim, a *core.Array, ios int, seed int64, done func(core.Result)) (des.Time, error) {
	const sectors = 8
	const outstanding = 4
	rng := rand.New(rand.NewSource(seed))
	issued, finished := 0, 0
	var issue func()
	issue = func() {
		if issued >= ios {
			return
		}
		issued++
		off := rng.Int63n(a.DataSectors() - sectors)
		if err := a.Submit(core.Read, off, sectors, false, func(r core.Result) {
			finished++
			done(r)
			issue()
		}); err != nil {
			panic(err)
		}
	}
	for i := 0; i < outstanding; i++ {
		issue()
	}
	for finished < ios {
		if !sim.Step() {
			return 0, fmt.Errorf("experiments: %s run stalled at %d/%d", what, finished, ios)
		}
	}
	end := sim.Now()
	if !a.Drain(des.Hour) {
		return 0, fmt.Errorf("experiments: %s run failed to drain", what)
	}
	return end, nil
}
