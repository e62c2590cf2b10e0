package main

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

const (
	clusterBricks = 4
	// clusterLinkLat is the router-to-brick interconnect latency, and the
	// sharded engine's lookahead.
	clusterLinkLat = 150 * des.Microsecond
	// clusterBrickSectors is each brick's logical size (1 GB): small
	// enough that the spare rebuild and the backfill finish inside the
	// timed phase.
	clusterBrickSectors = 1 << 21
	// clusterRetry is the client's backoff after the router refuses a
	// request because no replica of its range is reachable.
	clusterRetry = 2 * des.Millisecond
	// clusterUsPerOp is the simulated time one request of the base load
	// takes (1/sim_iops at this commit, rounded): the fault scenario's
	// horizon is sized from it so that the events land while the loop is
	// hot, and stays put when the simulated design changes.
	clusterUsPerOp = 800 * des.Microsecond
)

// clusterStack is an R=2 cluster over four RAID-10 bricks (4 drives + 1
// spare each), each brick on its own shard of a des.Sharded engine and the
// router and closed-loop clients on shard 0: the stack of cluster-chaos.
type clusterStack struct {
	sh      *des.Sharded
	sims    []*des.Sim
	arr     []*core.Array
	cl      *cluster.Cluster
	vol     core.Volume // cl, or its traced wrapper
	in      *inputs
	seed    int64
	clients int
	reg     *obs.Registry

	rec       *recorder
	next, end int
	shrink    int // completions still to absorb after a load burst
	armed     int
	onDone    func(core.Result)
}

func newClusterStack(c runCfg) (stack, error) {
	s := &clusterStack{
		sh: des.NewSharded(clusterBricks+1, clusterLinkLat),
		in: c.in, seed: c.seed, clients: int(c.load + 0.5),
	}
	workers := c.workers
	if workers == 0 {
		workers = 1
	}
	if err := s.sh.SetWorkers(workers); err != nil {
		return nil, err
	}
	if c.tr != nil {
		s.reg = &obs.Registry{}
	}
	cfg := layout.RAID10(4)
	vols := make([]core.Volume, clusterBricks)
	for i := 0; i <= clusterBricks; i++ {
		s.sims = append(s.sims, s.sh.Shard(i))
	}
	for b := 0; b < clusterBricks; b++ {
		a, err := core.New(s.sims[1+b], core.Options{
			Config: cfg, Policy: "satf", Seed: c.seed + int64(b),
			DataSectors: clusterBrickSectors, Spares: 1, RebuildMBps: 64, ForegroundWrites: true,
			Crash: core.CrashModel{Enabled: true, Durability: core.BatteryBacked},
			Obs:   s.reg, ObsLabel: fmt.Sprintf("brick%d", b),
		})
		if err != nil {
			return nil, err
		}
		s.arr = append(s.arr, a)
		vols[b] = traceVolume(a, c.tr, spanBrickSubmit, spanBrickDone, false)
	}
	cl, err := cluster.NewSharded(s.sims, tracedSend(c.tr, s.sh.Send), clusterLinkLat, vols, cluster.Options{
		Replicas: 2, ExtentSectors: 1024, Seed: c.seed, BackfillMBps: 256,
		// Probe for as long as an outage lasts: a generated outage can
		// outlive the default budget, and a breaker parked Open would leave
		// its divergence log unreconciled.
		ProbeTries: 1 << 30,
	})
	if err != nil {
		return nil, err
	}
	s.cl = cl
	s.vol = traceVolume(cl, c.tr, spanClusterSubmit, spanClusterDone, true)
	if s.in == nil {
		s.in = &inputs{seed: c.seed, ops: genOps(c.seed, c.ops, cl.DataSectors(), 0.67, 1)}
	}
	s.onDone = func(r core.Result) {
		s.rec.done(r)
		if s.shrink > 0 {
			s.shrink--
			return
		}
		s.issue()
	}
	return s, nil
}

// issue claims the next request of the stream and submits it.
func (s *clusterStack) issue() {
	if s.next >= s.end || s.rec.aborted {
		return
	}
	o := s.in.ops[s.next]
	s.next++
	s.attempt(o)
}

// attempt submits through the router. A synchronous refusal means the
// router knows every replica of the range is down; the client counts the
// failed attempt and retries the same request after a backoff.
func (s *clusterStack) attempt(o uint32) {
	op, off := decodeOp(o)
	if err := s.vol.Submit(op, off, ioSectors, false, s.onDone); err != nil {
		s.rec.refuse(false)
		if s.rec.aborted {
			return
		}
		s.sims[0].After(clusterRetry, func() { s.attempt(o) })
		return
	}
	s.rec.issued(op, off, ioSectors)
}

// applyBrick lands one scenario event on brick b, from that brick's shard.
// The router is never told: its breaker discovers an outage from failing
// traffic and its probes rediscover the recovery. Drive events a brick's
// state rejects (it is powered off, the drive is already gone) are
// dropped: the generator keeps a timeline legal in time, not in target.
func (s *clusterStack) applyBrick(b int, e chaos.Event) {
	a := s.arr[b]
	switch e.Kind {
	case chaos.DriveFail:
		if !a.Crashed() {
			_ = a.FailDrive(e.Drive) // rejected: the drive is already gone
		}
	case chaos.SlowDrive:
		_ = a.SetDriveSlow(e.Drive, disk.SlowProfile{Factor: e.Factor}) // rejected: powered off
	case chaos.BrickCrash:
		if err := a.Crash(); err != nil {
			panic(fmt.Sprintf("bench: brick %d crash: %v", b, err))
		}
	case chaos.BrickRecover:
		if err := a.Recover(); err != nil {
			panic(fmt.Sprintf("bench: brick %d recover: %v", b, err))
		}
	}
}

// applyClient widens the closed loop by the burst's extra requests, then
// absorbs that many completions to narrow back.
func (s *clusterStack) applyClient(e chaos.Event) {
	if e.Kind != chaos.LoadBurst {
		return
	}
	extra := int(e.Factor)
	for i := 0; i < extra; i++ {
		s.issue()
	}
	s.sims[0].At(e.At+e.Duration, func() { s.shrink += extra })
}

// arm generates the scenario for a run of n requests starting now and
// schedules each event on its target's own shard.
func (s *clusterStack) arm(n int, start des.Time) error {
	horizon := des.Time(n) * clusterUsPerOp * 3 / 4
	sc, err := genScenario(s.seed, clusterBricks, layout.RAID10(4).Disks(), start, horizon)
	if err != nil {
		return err
	}
	for b := range s.arr {
		b := b
		s.armed += chaos.Arm(s.sims[1+b], sc, b, func(e chaos.Event) { s.applyBrick(b, e) })
	}
	s.armed += chaos.Arm(s.sims[0], sc, chaos.ClientBrick, s.applyClient)
	return nil
}

func (s *clusterStack) run(from, n int, rec *recorder, measured bool) error {
	if from+n > len(s.in.ops) {
		return fmt.Errorf("input stream holds %d requests, need %d", len(s.in.ops), from+n)
	}
	s.rec, s.next, s.end, s.shrink = rec, from, from+n, 0
	// The previous phase ran to quiescence, which leaves each shard's
	// clock at its own last event; start everyone from the latest.
	var now des.Time
	for _, sim := range s.sims {
		if sim.Now() > now {
			now = sim.Now()
		}
	}
	rec.simStart = now
	if measured {
		if err := s.arm(n, now+5*des.Millisecond); err != nil {
			return err
		}
	}
	s.sims[0].At(now, func() {
		for i := 0; i < s.clients && i < n; i++ {
			s.issue()
		}
	})
	// Run to quiescence: every request, every scenario event, the spare
	// rebuild and the backfill all finish. The recorder's onLast hook
	// fires inside the last request's completion, so host counters
	// exclude the tail.
	s.sh.Run()
	if !rec.over() {
		return fmt.Errorf("cluster drained at %d/%d requests", rec.finished, n)
	}
	return nil
}

func (s *clusterStack) events() uint64  { return s.sh.Processed() }
func (s *clusterStack) inputs() *inputs { return s.in }
func (s *clusterStack) discard()        {}

func (s *clusterStack) counters(c counters) {
	obsCounters(c, s.reg)
	volumeCounters(c, s.cl)
	ctr := s.cl.Counters()
	c["cluster.read_failovers"] = float64(ctr.ReadFailovers)
	c["cluster.trips"] = float64(ctr.Trips)
	c["cluster.probes"] = float64(ctr.Probes)
	c["cluster.diverged"] = float64(ctr.Diverged)
	c["cluster.backfilled"] = float64(ctr.Backfilled)
	c["cluster.abandoned"] = float64(ctr.Abandoned)
	c["cluster.recopies"] = float64(ctr.Recopies)
	c["cluster.all_down"] = float64(ctr.AllDown)
	c["chaos.events_armed"] = float64(s.armed)
}

func (s *clusterStack) finish() error {
	ctr := s.cl.Counters()
	if p := s.cl.DivergencePending(); p != 0 {
		return fmt.Errorf("cluster.diverged: %d divergence entries pending after the drain", p)
	}
	if ctr.Diverged != ctr.Backfilled+ctr.Abandoned {
		return fmt.Errorf("cluster.diverged %d != cluster.backfilled %d + cluster.abandoned %d", ctr.Diverged, ctr.Backfilled, ctr.Abandoned)
	}
	return nil
}
