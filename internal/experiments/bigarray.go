package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/layout"
)

// The big-array experiment scales the simulator past one brick: a front-end
// client stripes a closed-loop workload over many independent MimdRAID
// bricks (each its own array, drives, and buses) on the shared multi-brick
// harness (harness.go). The digest of a run is worker-count-independent;
// TestShardedMatchesSequential holds the epoch engine at one, two and four
// workers to a lockstep reference driver.

// BigArraySpec sizes a multi-brick run.
type BigArraySpec struct {
	Bricks int
	Cfg    layout.Config
	// IOs is the total number of client requests.
	IOs int
	// Outstanding is the cluster-wide closed-loop window.
	Outstanding int
	Sectors     int
	ReadFrac    float64
	Seed        int64
	// Workers is the epoch worker count (0 = one worker).
	Workers int
	// Batch primes each brick's share of the initial window through one
	// SubmitBatch instead of one Submit per request.
	Batch bool
}

// BigArrayResult aggregates a multi-brick run.
type BigArrayResult struct {
	Drives    int
	Completed int
	// Events is the total simulator events executed across all shards.
	Events uint64
	// Elapsed is the simulated time of the last completion.
	Elapsed des.Time
	IOPS    float64
	MeanLat des.Time
	// Digest fingerprints the run: equal digests mean the same simulation
	// happened, whatever driver or worker count executed it. Latencies are
	// folded in as integer nanoseconds so the fingerprint is independent of
	// the order client-side completions were summed in.
	Digest string
}

// bigCluster is the client plus bricks of one run. Client state lives on
// sims[0] and is only touched by that shard's events; each array is only
// touched by its own shard's events — the isolation the epoch protocol
// requires.
type bigCluster struct {
	clientLoop
	spec   BigArraySpec
	sims   []*des.Sim // sims[0] = client, sims[1+b] = brick b
	arrays []*core.Array
	send   sendFn

	rng      *rand.Rand
	vol      int64
	perBrick []int
}

// buildBigCluster constructs the arrays and the priming event on the sims
// and send function of a driver (the epoch engine, or the tests' lockstep
// reference).
func buildBigCluster(spec BigArraySpec, sims []*des.Sim, send sendFn) (*bigCluster, error) {
	c := &bigCluster{
		clientLoop: clientLoop{sim: sims[0], ios: spec.IOs, outstanding: spec.Outstanding},
		spec:       spec, sims: sims, send: send,
		rng:      rand.New(rand.NewSource(spec.Seed)),
		arrays:   make([]*core.Array, spec.Bricks),
		perBrick: make([]int, spec.Bricks),
	}
	c.attempt = c.sendDraw
	for b := range c.arrays {
		a, err := core.New(sims[1+b], core.Options{
			Config: spec.Cfg, Policy: policyFor(spec.Cfg), Seed: spec.Seed + int64(b),
		})
		if err != nil {
			return nil, err
		}
		c.arrays[b] = a
	}
	c.vol = c.arrays[0].DataSectors() - int64(spec.Sectors)
	if spec.Batch {
		sims[0].At(0, c.primeBatch)
	} else {
		sims[0].At(0, c.prime)
	}
	return c, nil
}

// done is brick b's completion callback: the completion travels back over
// the link and re-enters the closed loop.
func (c *bigCluster) done(b int, submitAt des.Time) func(core.Result) {
	return func(core.Result) {
		c.send(1+b, 0, c.sims[1+b].Now()+bigLinkLat, func() {
			c.complete(submitAt, false)
			c.perBrick[b]++
		})
	}
}

// sendDraw draws one request and routes it to its brick over the link.
func (c *bigCluster) sendDraw(_ int, submitAt des.Time) {
	b, off, op := drawBrickOp(c.rng, c.spec.Bricks, c.vol, c.spec.ReadFrac)
	c.send(0, 1+b, submitAt+bigLinkLat, func() {
		if err := c.arrays[b].Submit(op, off, c.spec.Sectors, false, c.done(b, submitAt)); err != nil {
			panic(err)
		}
	})
}

// primeBatch fills the window grouped by brick, each group delivered as
// one message carrying one SubmitBatch: the brick validates, resolves, and
// queues its whole share before its schedulers run once.
func (c *bigCluster) primeBatch() {
	now := c.sims[0].Now()
	batches := make([][]core.BatchOp, c.spec.Bricks)
	for c.issued < min(c.outstanding, c.ios) {
		c.issued++
		b, off, op := drawBrickOp(c.rng, c.spec.Bricks, c.vol, c.spec.ReadFrac)
		batches[b] = append(batches[b], core.BatchOp{
			Op: op, Off: off, Count: c.spec.Sectors, Done: c.done(b, now),
		})
	}
	for b, ops := range batches {
		if len(ops) == 0 {
			continue
		}
		b, ops := b, ops
		c.send(0, 1+b, now+bigLinkLat, func() {
			if _, err := c.arrays[b].SubmitBatch(ops); err != nil {
				panic(err)
			}
		})
	}
}

// result assembles the run summary from the client-side counters.
func (c *bigCluster) result(events uint64) *BigArrayResult {
	r := &BigArrayResult{
		Drives:    c.spec.Bricks * c.spec.Cfg.Disks(),
		Completed: c.finished,
		Events:    events,
		Elapsed:   c.last,
	}
	if c.last > 0 {
		r.IOPS = float64(c.finished) / (float64(c.last) / 1e6)
	}
	if c.finished > 0 {
		r.MeanLat = des.Time(float64(c.latNs) / float64(c.finished) / 1000)
	}
	r.Digest = fmt.Sprintf("issued=%d finished=%d latNs=%d last=%.6f perBrick=%v events=%d",
		c.issued, c.finished, c.latNs, float64(c.last), c.perBrick, events)
	return r
}

// RunBigArray executes the cluster on the sharded epoch engine.
func RunBigArray(spec BigArraySpec) (*BigArrayResult, error) {
	c, events, err := runSharded(spec.Bricks, spec.Workers, func(sims []*des.Sim, send sendFn) (*bigCluster, error) {
		return buildBigCluster(spec, sims, send)
	})
	if err != nil {
		return nil, err
	}
	if err := c.drained("big array"); err != nil {
		return nil, err
	}
	return c.result(events), nil
}

// DefaultBigArraySpec is the 128-drive cluster the benchmark and the
// bigarray experiment run: 8 bricks of (Ds=4, Dr=2, Dm=2) = 16 drives each.
func DefaultBigArraySpec(c Config) BigArraySpec {
	return BigArraySpec{
		Bricks:      8,
		Cfg:         layout.Config{Ds: 4, Dr: 2, Dm: 2},
		IOs:         c.IometerIOs * 4,
		Outstanding: 128,
		Sectors:     8,
		ReadFrac:    0.67,
		Seed:        c.Seed,
		Batch:       true,
	}
}

// BigArray is the registry experiment: the 128-drive cluster at one epoch
// worker, reporting its throughput, event count and mean latency.
func BigArray(c Config) (*Figure, error) {
	r, err := RunBigArray(DefaultBigArraySpec(c))
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		Name: "bigarray", Title: "128-drive multi-brick cluster (sharded event loop)",
		XLabel: "epoch workers", YLabel: "IOPS",
	}
	iops := Series{Label: "cluster-iops"}
	iops.Add(1, r.IOPS)
	fig.Series = append(fig.Series, iops)
	fig.Metric("drives", float64(r.Drives))
	fig.Metric("events", float64(r.Events))
	fig.Metric("mean-latency-us", float64(r.MeanLat))
	fig.Metric("completed", float64(r.Completed))
	return fig, nil
}
