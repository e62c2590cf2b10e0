package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/slo"
	"repro/internal/stats"
)

// The multi-brick experiments run on one engine driver (runSharded): a
// closed-loop client (clientLoop) on shard 0 of a des.Sharded, one brick
// per further shard, and an interconnect whose link latency is the
// engine's lookahead — nothing crosses between client and brick faster
// than the link carries it, which is the bound the epoch protocol needs.
// bigarray, chaos and slo-chaos share one world on it, brickWorld: the
// client draws each request's brick itself and sends it over the link,
// a brick's controller (if any) admits it, and the outcome crosses back
// into per-tier tallies. Each experiment only sizes a brickSpec and reads
// its own result and digest from the world. brick-loss puts a replicated
// cluster.NewSharded volume between the same client and bricks instead.

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

// brickSpec sizes one run of the shared client world.
type brickSpec struct {
	bricks int
	// brick is every brick's core.Options; brick b runs at Seed seed+b.
	brick       core.Options
	seed        int64
	ios         int
	outstanding int
	sectors     int
	readFrac    float64
	// sc is armed on every brick and on the client (its load bursts); the
	// zero Scenario arms nothing.
	sc     chaos.Scenario
	window des.Time // p99 window; 0 keeps none
	// tierOf fixes request seq's tier before its first draw, so the tier
	// mix is the same whatever the controllers do; nil makes every request
	// slo.Standard.
	tierOf func(seq int) slo.Tier
	// tierSLO is the latency a tier's success must meet to count as sloOK.
	tierSLO [slo.NumTiers]des.Time
	// ctl gives every brick its own controller; nil runs none (a nil
	// *slo.Controller admits everything and ignores Observe).
	ctl *slo.Options
	// batch primes the window grouped by brick, one SubmitBatch per brick.
	// It skips admission, so it needs ctl == nil.
	batch bool
}

// brickTier is one tier's client-side tallies.
type brickTier struct {
	issued, ok, failed, sloOK, shed, rejected int64
}

// brickWorld is the client plus bricks of one run. Client state lives on
// shard 0; each brick's array, controller and skipped-event count are
// touched only by that brick's shard — the controller admits in the
// submit event and observes in the completion callback, so the control
// loop rides the epoch protocol's isolation.
type brickWorld struct {
	clientLoop
	spec brickSpec
	sims []*des.Sim // sims[0] = client, sims[1+b] = brick b
	arr  []*core.Array
	ctl  []*slo.Controller // nil entries without controllers
	send sendFn

	rng      *rand.Rand
	vol      int64
	perBrick []int
	tiers    [slo.NumTiers]brickTier
	// skipped[b] counts scenario events brick b ignored because its state
	// made them inapplicable (e.g. a drive event landing inside an outage).
	skipped []int
}

// newBrickWorld builds spec's world on the sims and send function of a
// driver (the epoch engine, or the tests' lockstep reference). Per brick
// it builds the array, then the controller, then arms the scenario; then
// the client's scenario events and the priming event — the order every
// pinned draw and event depends on.
func newBrickWorld(spec brickSpec, sims []*des.Sim, send sendFn) (*brickWorld, error) {
	w := &brickWorld{
		clientLoop: clientLoop{sim: sims[0], ios: spec.ios, outstanding: spec.outstanding, window: spec.window},
		spec:       spec, sims: sims, send: send,
		rng:      rand.New(rand.NewSource(spec.seed)),
		arr:      make([]*core.Array, spec.bricks),
		ctl:      make([]*slo.Controller, spec.bricks),
		perBrick: make([]int, spec.bricks),
		skipped:  make([]int, spec.bricks),
	}
	w.attempt = func(seq int, submitAt des.Time) {
		tier := w.tier(seq)
		w.tiers[tier].issued++
		w.sendDraw(tier, submitAt)
	}
	for b := range w.arr {
		o := spec.brick
		o.Seed = spec.seed + int64(b)
		a, err := core.New(sims[1+b], o)
		if err != nil {
			return nil, err
		}
		w.arr[b] = a
		if spec.ctl != nil {
			if w.ctl[b], err = slo.New(a, *spec.ctl); err != nil {
				return nil, err
			}
		}
		b := b
		chaos.Arm(sims[1+b], spec.sc, b, func(e chaos.Event) {
			if !chaos.Apply(a, e) {
				w.skipped[b]++
			}
		})
	}
	chaos.Arm(sims[0], spec.sc, chaos.ClientBrick, w.burst)
	w.vol = w.arr[0].DataSectors() - int64(spec.sectors)
	if spec.batch {
		sims[0].At(0, w.primeBatch)
	} else {
		sims[0].At(0, w.prime)
	}
	return w, nil
}

// runBrickWorld runs spec's world on the epoch engine to quiescence and
// checks that every request completed.
func runBrickWorld(spec brickSpec, workers int, what string) (*brickWorld, uint64, error) {
	w, events, err := runSharded(spec.bricks, workers, func(sims []*des.Sim, send sendFn) (*brickWorld, error) {
		return newBrickWorld(spec, sims, send)
	})
	if err != nil {
		return nil, 0, err
	}
	return w, events, w.drained(what)
}

func (w *brickWorld) tier(seq int) slo.Tier {
	if w.spec.tierOf == nil {
		return slo.Standard
	}
	return w.spec.tierOf(seq)
}

// sendDraw draws a fresh (brick, offset, op) and sends it over the link;
// submitAt survives retries and shed bounces so measured latency includes
// every stall the request suffered.
func (w *brickWorld) sendDraw(tier slo.Tier, submitAt des.Time) {
	b, off, op := drawBrickOp(w.rng, w.spec.bricks, w.vol, w.spec.readFrac)
	w.send(0, 1+b, w.sim.Now()+bigLinkLat, func() { w.submit(b, tier, off, op, submitAt) })
}

// submit runs on brick b's shard. The brick's controller sheds before the
// array sees the request, and a powered-off array rejects it; either way
// the attempt bounces back and the client retries with a fresh draw (a
// long outage does not pin the slot to the dark brick).
func (w *brickWorld) submit(b int, tier slo.Tier, off int64, op core.Op, submitAt des.Time) {
	sim := w.sims[1+b]
	if ra, ok := w.ctl[b].Admit(sim.Now(), tier.String()); !ok {
		w.send(1+b, 0, sim.Now()+bigLinkLat, func() {
			w.tiers[tier].shed++
			w.sim.After(ra, func() { w.sendDraw(tier, submitAt) })
		})
		return
	}
	if err := w.arr[b].Submit(op, off, w.spec.sectors, false, w.completion(b, tier, submitAt)); err != nil {
		// A synchronous rejection is SLO evidence (the same 5xx rule the
		// gateway applies).
		w.ctl[b].Observe(sim.Now(), tier.String(), 0, true)
		w.send(1+b, 0, sim.Now()+bigLinkLat, func() {
			w.tiers[tier].rejected++
			w.sim.After(chaosRetry, func() { w.sendDraw(tier, submitAt) })
		})
	}
}

// completion is brick b's callback for one request: the controller
// observes the outcome on the brick's shard, then it crosses back.
func (w *brickWorld) completion(b int, tier slo.Tier, submitAt des.Time) func(core.Result) {
	sim := w.sims[1+b]
	return func(r core.Result) {
		w.ctl[b].Observe(sim.Now(), tier.String(), sim.Now()-submitAt, r.Failed)
		failed := r.Failed
		w.send(1+b, 0, sim.Now()+bigLinkLat, func() { w.done(b, tier, submitAt, failed) })
	}
}

// done retires one logical request on the client shard.
func (w *brickWorld) done(b int, tier slo.Tier, submitAt des.Time, failed bool) {
	lat := w.complete(submitAt, failed)
	w.perBrick[b]++
	tt := &w.tiers[tier]
	if failed {
		tt.failed++
		return
	}
	tt.ok++
	if lat <= w.spec.tierSLO[tier] {
		tt.sloOK++
	}
}

// primeBatch fills the window grouped by brick, each group delivered as
// one message carrying one SubmitBatch: the brick validates, resolves, and
// queues its whole share before its schedulers run once.
func (w *brickWorld) primeBatch() {
	now := w.sim.Now()
	batches := make([][]core.BatchOp, w.spec.bricks)
	for w.issued < min(w.outstanding, w.ios) {
		tier := w.tier(w.issued)
		w.tiers[tier].issued++
		w.issued++
		b, off, op := drawBrickOp(w.rng, w.spec.bricks, w.vol, w.spec.readFrac)
		batches[b] = append(batches[b], core.BatchOp{
			Op: op, Off: off, Count: w.spec.sectors, Done: w.completion(b, tier, now),
		})
	}
	for b, ops := range batches {
		if len(ops) == 0 {
			continue
		}
		b, ops := b, ops
		w.send(0, 1+b, now+bigLinkLat, func() {
			if _, err := w.arr[b].SubmitBatch(ops); err != nil {
				panic(err)
			}
		})
	}
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
