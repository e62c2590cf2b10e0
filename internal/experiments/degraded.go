package experiments

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/layout"
	"repro/internal/runner"
)

// DegradedRebuild is the fault-tolerance companion to the paper's healthy
// micro-benchmarks: read latency of equal-size (six data drive) SR-Array,
// RAID-10 and SR-Mirror configurations in three health states — healthy,
// degraded (one drive fail-stopped, no spare), and mid-rebuild (one drive
// fail-stopped with a hot spare reconstructing behind the measurement).
// Alongside latency it reports the fraction of reads lost outright: the
// SR-Array trades away exactly this axis, while the mirrored layouts serve
// every read from a surviving copy.
func DegradedRebuild(c Config) (*Figure, error) {
	type scen struct {
		x     float64
		name  string
		fail  bool
		spare bool
	}
	scenarios := []scen{
		{0, "healthy", false, false},
		{1, "degraded", true, false},
		{2, "rebuilding", true, true},
	}
	configs := []struct {
		label string
		cfg   layout.Config
	}{
		{"SR-Array 2x3x1", layout.SRArray(2, 3)},
		{"RAID-10 3x1x2", layout.RAID10(6)},
		{"SR-Mirror 1x3x2", layout.Config{Ds: 1, Dr: 3, Dm: 2}},
	}

	type job struct {
		cfg layout.Config
		sc  scen
	}
	var jobs []job
	for _, cc := range configs {
		for _, sc := range scenarios {
			jobs = append(jobs, job{cc.cfg, sc})
		}
	}
	res, err := runner.Map(len(jobs), func(i int) (degradedRes, error) {
		j := jobs[i]
		return runDegraded(j.cfg, j.sc.fail, j.sc.spare, c.IometerIOs, c.Seed)
	})
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		Name:   "degraded-rebuild",
		Title:  "Read latency under failure and rebuild (six data drives)",
		XLabel: "scenario (0 healthy, 1 degraded, 2 rebuilding)",
		YLabel: "mean read latency (ms) / reads lost (%)",
	}
	for ci, cc := range configs {
		lat := Series{Label: cc.label}
		lost := Series{Label: cc.label + " lost"}
		for si, sc := range scenarios {
			r := res[ci*len(scenarios)+si]
			lat.Add(sc.x, float64(r.mean)/float64(des.Millisecond))
			lost.Add(sc.x, 100*float64(r.lost)/float64(r.lost+r.served))
			fig.Metric(fmt.Sprintf("served/%s/%s", cc.label, sc.name), float64(r.served))
			fig.Metric(fmt.Sprintf("lost/%s/%s", cc.label, sc.name), float64(r.lost))
			fig.Metric(fmt.Sprintf("iops/%s/%s", cc.label, sc.name), r.iops)
		}
		fig.Series = append(fig.Series, lat, lost)
	}
	return fig, nil
}

// degradedRes is one health-scenario measurement.
type degradedRes struct {
	mean   des.Time
	served int
	lost   int
	// iops is the warmup-trimmed completion rate.
	iops float64
}

// degradedWarmup excludes the loop's cold start (empty queues, idle arms)
// from the reported rate.
const degradedWarmup = 50 * des.Millisecond

// degradedVolume keeps the rebuild short enough for the registry smoke
// test while leaving hundreds of chunks per drive to reconstruct.
const degradedVolume = int64(1 << 18) // 128 MB

// degradedRebuildMBps throttles the background reconstruction so the
// measurement genuinely overlaps it.
const degradedRebuildMBps = 20

// runDegraded builds the array, optionally fail-stops drive 0 (with or
// without a hot spare), and measures a closed loop of uniform random reads.
// Failed reads (chunks with no surviving copy) are counted as lost and
// excluded from the latency mean. The drain at the end lets any rebuild
// finish so the simulation retires cleanly.
func runDegraded(cfg layout.Config, fail, spare bool, ios int, seed int64) (degradedRes, error) {
	sim, a, err := buildArray(cfg, policyFor(cfg), degradedVolume, seed, func(o *coreOptions) {
		o.ObsLabel = fmt.Sprintf("degraded-rebuild/%s/fail=%t/spare=%t", cfg, fail, spare)
		if spare {
			o.Spares = 1
			o.RebuildMBps = degradedRebuildMBps
		}
	})
	if err != nil {
		return degradedRes{}, err
	}
	if fail {
		if err := a.FailDrive(0); err != nil {
			return degradedRes{}, err
		}
	}

	var res degradedRes
	var total des.Time
	start := sim.Now()
	measureFrom := start + degradedWarmup
	measured := 0
	end, err := readLoop("degraded", sim, a, ios, seed+101, func(r coreResult) {
		if r.Done >= measureFrom {
			measured++
		}
		if r.Failed {
			res.lost++
		} else {
			res.served++
			total += r.Latency()
		}
	})
	if err != nil {
		return degradedRes{}, err
	}
	if res.served > 0 {
		res.mean = total / des.Time(res.served)
	}
	res.iops = measuredRate(measured, start, end, degradedWarmup)
	return res, nil
}
