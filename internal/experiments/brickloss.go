package experiments

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/layout"
)

// The brick-loss experiment is the headline robustness demonstration: the
// same seeded workload and the same chaos scenario (one whole-brick power
// failure plus a client load burst) run against a three-brick cluster
// volume twice — once unreplicated (R=1) and once with two-way extent
// replication (R=2). With R=1 the outage is client-visible: every request
// touching the dark brick's extents is rejected or fails until power
// returns. With R=2 the cluster absorbs it — reads fail over to the
// surviving replica, writes take a quorum and log divergence, and the
// paced backfill re-replicates once the brick returns, with the
// divergence counters reconciling exactly (Diverged == Backfilled +
// Abandoned). Both legs run on the sharded epoch engine; each leg's
// digest folds in the scenario timeline, every completion, the router
// counters and the per-brick recovery counters, and
// TestSameAtWorkersAndReruns holds it equal at worker counts 1, 2, and 4.

// brickLossSLO is the response-time bound the compliance metric counts
// against.
const brickLossSLO = 50 * des.Millisecond

// brickLossSpec sizes one brick-loss leg.
type brickLossSpec struct {
	bricks      int
	cfg         layout.Config
	sectorsPer  int64 // per-brick DataSectors
	replicas    int
	ios         int
	outstanding int
	sectors     int
	readFrac    float64
	seed        int64
	sc          chaos.Scenario
	window      des.Time
}

// brickLossRun is one leg's client state (shard 0) plus bricks (shards
// 1+b). The cluster router also lives on shard 0, so every breaker and
// divergence-log transition is an ordinary shard-0 event — exactly the
// isolation the epoch protocol needs for worker-count invariance.
type brickLossRun struct {
	clientLoop
	spec brickLossSpec
	arr  []*core.Array
	cl   *cluster.Cluster

	rng        *splitRng
	vol        int64
	ok         int
	failed     int
	rejected   int
	readErrs   int // failed or rejected reads: the client-visible outage
	writeErrs  int
	sloOK      int
	outageFrom des.Time
	outageTo   des.Time
	outageErrs int // client-visible errors inside the outage window
}

// splitRng is a tiny deterministic draw stream (splitmix64) — the client
// needs (op, offset) pairs whose sequence is identical across legs that
// have different volume sizes, so offsets are drawn as fractions.
type splitRng struct{ s uint64 }

func (r *splitRng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	x := r.s
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (r *splitRng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func buildBrickLoss(spec brickLossSpec, sims []*des.Sim, send sendFn) (*brickLossRun, error) {
	c := &brickLossRun{
		clientLoop: clientLoop{sim: sims[0], ios: spec.ios, outstanding: spec.outstanding, window: spec.window},
		spec:       spec,
		rng:        &splitRng{s: uint64(spec.seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d},
		arr:        make([]*core.Array, spec.bricks),
	}
	c.attempt = func(_ int, submitAt des.Time) { c.submitDraw(submitAt) }
	vols := make([]core.Volume, spec.bricks)
	for b := range c.arr {
		a, err := core.New(sims[1+b], core.Options{
			Config: spec.cfg, Policy: policyFor(spec.cfg), Seed: spec.seed + int64(b),
			DataSectors: spec.sectorsPer,
			Crash:       core.CrashModel{Enabled: true, Durability: core.BatteryBacked},
		})
		if err != nil {
			return nil, err
		}
		c.arr[b] = a
		vols[b] = a
		// The router is never told: its breaker discovers the outage from
		// failing traffic and its probes rediscover the recovery — the
		// whole point of the experiment.
		chaos.Arm(sims[1+b], spec.sc, b, func(e chaos.Event) { chaos.Apply(a, e) })
	}
	cl, err := cluster.NewSharded(sims, send, bigLinkLat, vols, cluster.Options{
		Replicas: spec.replicas, ExtentSectors: 1024, Seed: spec.seed,
		BackfillMBps: 256,
	})
	if err != nil {
		return nil, err
	}
	c.cl = cl
	c.vol = cl.DataSectors() - int64(spec.sectors)
	for _, e := range spec.sc.Events {
		if e.Kind == chaos.BrickCrash {
			c.outageFrom, c.outageTo = e.At, e.At+e.Duration
		}
	}
	chaos.Arm(sims[0], spec.sc, chaos.ClientBrick, c.burst)
	sims[0].At(0, c.prime)
	return c, nil
}

// submitDraw draws (op, offset) and submits through the cluster router on
// this shard. A synchronous rejection means the router knows every
// replica of the range is down (the R=1 outage signature): count it as a
// client-visible error and retry the slot after a backoff with a fresh
// draw.
func (c *brickLossRun) submitDraw(submitAt des.Time) {
	off := int64(c.rng.float() * float64(c.vol))
	op := core.Read
	if c.rng.float() >= c.spec.readFrac {
		op = core.Write
	}
	err := c.cl.Submit(op, off, c.spec.sectors, false, func(r coreResult) {
		lat := c.complete(submitAt, r.Failed)
		if r.Failed {
			c.failed++
			c.noteError(op)
			return
		}
		c.ok++
		if lat <= brickLossSLO {
			c.sloOK++
		}
	})
	if err != nil {
		c.rejected++
		c.noteError(op)
		c.sim.After(chaosRetry, func() { c.submitDraw(submitAt) })
	}
}

func (c *brickLossRun) noteError(op core.Op) {
	if op == core.Read {
		c.readErrs++
	} else {
		c.writeErrs++
	}
	now := c.sim.Now()
	if now >= c.outageFrom && now <= c.outageTo+chaosRetry {
		c.outageErrs++
	}
}

// brickLossRes is one leg's summary.
type brickLossRes struct {
	digest     string
	p99        []int64
	window     des.Time
	ok, failed int
	rejected   int
	readErrs   int
	writeErrs  int
	outageErrs int
	sloOK      int
	ctr        cluster.Counters
	pending    int
	events     uint64
}

func (c *brickLossRun) result(events uint64) *brickLossRes {
	r := &brickLossRes{
		window: c.spec.window, ok: c.ok, failed: c.failed, rejected: c.rejected,
		readErrs: c.readErrs, writeErrs: c.writeErrs, outageErrs: c.outageErrs,
		sloOK: c.sloOK, ctr: c.cl.Counters(), pending: c.cl.DivergencePending(),
		events: events, p99: c.p99(),
	}
	rec := ""
	for b, a := range c.arr {
		rc := a.Recovery()
		rec += fmt.Sprintf(" b%d[cr=%d rec=%d ad=%d lost=%d div=%d rep=%d state=%s]",
			b, rc.Crashes, rc.Recoveries, rc.Adopted, rc.LostDelayed,
			rc.DivergentFound, rc.Repaired, c.cl.State(b))
	}
	r.digest = fmt.Sprintf("%sr=%d issued=%d ok=%d failed=%d rejected=%d rdErr=%d wrErr=%d outErr=%d latNs=%d last=%.6f sloOK=%d p99=%v ctr=%+v pending=%d events=%d%s",
		c.spec.sc.Timeline(), c.spec.replicas, c.issued, c.ok, c.failed, c.rejected,
		c.readErrs, c.writeErrs, c.outageErrs, c.latNs, float64(c.last), c.sloOK,
		r.p99, r.ctr, r.pending, events, rec)
	return r
}

// runBrickLoss executes one leg on the sharded epoch engine.
func runBrickLoss(spec brickLossSpec, workers int) (*brickLossRes, error) {
	c, events, err := runSharded(spec.bricks, workers, func(sims []*des.Sim, send sendFn) (*brickLossRun, error) {
		return buildBrickLoss(spec, sims, send)
	})
	if err != nil {
		return nil, err
	}
	if c.finished+c.rejected == 0 || c.issued != c.spec.ios {
		return nil, fmt.Errorf("experiments: brick-loss leg stalled at %d/%d issued", c.issued, c.spec.ios)
	}
	if err := c.drained("brick-loss leg"); err != nil {
		return nil, err
	}
	res := c.result(events)
	// The divergence log must have settled: every entry ever created was
	// either backfilled or written off, nothing lingers.
	if res.pending != 0 {
		return nil, fmt.Errorf("experiments: %d divergence entries pending after the run", res.pending)
	}
	if res.ctr.Diverged != res.ctr.Backfilled+res.ctr.Abandoned {
		return nil, fmt.Errorf("experiments: divergence counters do not reconcile: %+v", res.ctr)
	}
	return res, nil
}

// defaultBrickLossSpec sizes a leg: three 8-drive bricks, one brick-crash
// cycle and one load burst inside a horizon scaled to the workload.
func defaultBrickLossSpec(c Config, replicas int) (brickLossSpec, error) {
	bricks := 3
	cfg := layout.Config{Ds: 2, Dr: 2, Dm: 2}
	horizon := des.Time(c.IometerIOs) * 150 * des.Microsecond
	sc, err := genScenario(c.Seed, chaos.Options{
		Bricks: bricks, DrivesPerBrick: cfg.Disks(),
		Start: 5 * des.Millisecond, Horizon: horizon,
		BrickCrashes: 1, LoadBursts: 1,
	})
	if err != nil {
		return brickLossSpec{}, err
	}
	return brickLossSpec{
		bricks: bricks, cfg: cfg, sectorsPer: 1 << 17, replicas: replicas,
		ios: c.IometerIOs * 2, outstanding: 24, sectors: 8, readFrac: 0.7,
		seed: c.Seed, sc: sc, window: horizon / 16,
	}, nil
}

// BrickLoss is the registry experiment.
func BrickLoss(c Config) (*Figure, error) {
	legs := []int{1, 2}
	results := make([]*brickLossRes, len(legs))
	for i, r := range legs {
		spec, err := defaultBrickLossSpec(c, r)
		if err != nil {
			return nil, err
		}
		if results[i], err = runBrickLoss(spec, 1); err != nil {
			return nil, err
		}
	}
	r1, r2 := results[0], results[1]

	// The headline claims, enforced: unreplicated, the outage is client
	// visible; replicated, reads never fail — there is always a live
	// replica when at most one brick is dark.
	if r1.readErrs+r1.writeErrs == 0 {
		return nil, fmt.Errorf("experiments: R=1 leg saw no client-visible errors; the outage missed the workload")
	}
	if r2.readErrs != 0 {
		return nil, fmt.Errorf("experiments: R=2 leg surfaced %d read errors to the client", r2.readErrs)
	}

	fig := &Figure{
		Name: "brick-loss", Title: "Whole-brick outage: unreplicated vs 2-way replicated cluster volume",
		XLabel: "window end (ms of simulated time)", YLabel: "p99 response time (ms)",
	}
	for i, res := range results {
		fig.Series = append(fig.Series, p99Series(fmt.Sprintf("p99/R=%d", legs[i]), res.window, res.p99))
	}
	for i, res := range results {
		p := fmt.Sprintf("r%d/", legs[i])
		fig.Metric(p+"ok", float64(res.ok))
		fig.Metric(p+"failed", float64(res.failed))
		fig.Metric(p+"rejected", float64(res.rejected))
		fig.Metric(p+"read_errors", float64(res.readErrs))
		fig.Metric(p+"write_errors", float64(res.writeErrs))
		fig.Metric(p+"outage_errors", float64(res.outageErrs))
		fig.Metric(p+"slo_ok", float64(res.sloOK))
		if res.ok > 0 {
			fig.Metric(p+"slo_pct", 100*float64(res.sloOK)/float64(res.ok))
		}
		fig.Metric(p+"failovers", float64(res.ctr.ReadFailovers))
		fig.Metric(p+"trips", float64(res.ctr.Trips))
		fig.Metric(p+"probes", float64(res.ctr.Probes))
		fig.Metric(p+"diverged", float64(res.ctr.Diverged))
		fig.Metric(p+"backfilled", float64(res.ctr.Backfilled))
		fig.Metric(p+"abandoned", float64(res.ctr.Abandoned))
		fig.Metric(p+"recopies", float64(res.ctr.Recopies))
		fig.Metric(p+"events", float64(res.events))
	}
	return fig, nil
}
