package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/layout"
)

// The big-array experiment scales the simulator past one brick: a front-end
// client stripes a closed-loop workload over many independent MimdRAID
// bricks (each its own array, drives, and buses) in the shared client
// world (harness.go). The digest of a run is worker-count-independent;
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

// world is the shared client world's spec for this run: plain bricks, no
// scenario, no controllers, every request standard.
func (s BigArraySpec) world() brickSpec {
	return brickSpec{
		bricks: s.Bricks,
		brick:  core.Options{Config: s.Cfg, Policy: policyFor(s.Cfg)},
		seed:   s.Seed, ios: s.IOs, outstanding: s.Outstanding,
		sectors: s.Sectors, readFrac: s.ReadFrac, batch: s.Batch,
	}
}

// bigResult assembles the run summary from the client-side counters.
func bigResult(s BigArraySpec, w *brickWorld, events uint64) *BigArrayResult {
	r := &BigArrayResult{
		Drives:    s.Bricks * s.Cfg.Disks(),
		Completed: w.finished,
		Events:    events,
		Elapsed:   w.last,
	}
	if w.last > 0 {
		r.IOPS = float64(w.finished) / (float64(w.last) / 1e6)
	}
	if w.finished > 0 {
		r.MeanLat = des.Time(float64(w.latNs) / float64(w.finished) / 1000)
	}
	r.Digest = fmt.Sprintf("issued=%d finished=%d latNs=%d last=%.6f perBrick=%v events=%d",
		w.issued, w.finished, w.latNs, float64(w.last), w.perBrick, events)
	return r
}

// RunBigArray executes the cluster on the sharded epoch engine.
func RunBigArray(spec BigArraySpec) (*BigArrayResult, error) {
	w, events, err := runBrickWorld(spec.world(), spec.Workers, "big array")
	if err != nil {
		return nil, err
	}
	return bigResult(spec, w, events), nil
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
