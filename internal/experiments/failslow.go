package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/runner"
	"repro/internal/stats"
)

// FailSlow measures the fail-slow tolerance stack on a RAID-10(6): read
// tail latency (p50/p99/p99.9) of an all-healthy array against one with a
// single fail-slow drive (persistent inflation plus stutter windows),
// under three mitigation levels — none, hedged reads, and hedged reads
// plus health-tracker eviction into a hot spare. The paper's arrays only
// fail-stop; this is the robustness companion: a drive that is merely slow
// defeats both the fail-stop detector and (after dispatch) the mirror
// duplicate-request heuristic, and the tail shows it.
func FailSlow(c Config) (*Figure, error) {
	type scen struct {
		x     float64
		name  string
		slow  bool
		hedge bool
		evict bool
	}
	scenarios := []scen{
		{0, "healthy", false, false, false},
		{1, "slow", true, false, false},
		{2, "slow+hedge", true, true, false},
		{3, "slow+hedge+evict", true, true, true},
	}
	res, err := runner.Map(len(scenarios), func(i int) (failSlowRes, error) {
		s := scenarios[i]
		return runFailSlow(s.slow, s.hedge, s.evict, c.IometerIOs, c.Seed)
	})
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		Name:   "fail-slow",
		Title:  "Read tail latency with one fail-slow drive (RAID-10, six drives)",
		XLabel: "scenario (0 healthy, 1 slow, 2 slow+hedge, 3 slow+hedge+evict)",
		YLabel: "read latency percentile (ms)",
	}
	p50 := Series{Label: "p50"}
	p99 := Series{Label: "p99"}
	p999 := Series{Label: "p99.9"}
	for si, sc := range scenarios {
		r := res[si]
		p50.Add(sc.x, float64(r.p50)/float64(des.Millisecond))
		p99.Add(sc.x, float64(r.p99)/float64(des.Millisecond))
		p999.Add(sc.x, float64(r.p999)/float64(des.Millisecond))
		fig.Metric(fmt.Sprintf("served/%s", sc.name), float64(r.served))
		fig.Metric(fmt.Sprintf("iops/%s", sc.name), r.iops)
		fig.Metric(fmt.Sprintf("slow_commands/%s", sc.name), float64(r.slowCommands))
		fig.Metric(fmt.Sprintf("stutters/%s", sc.name), float64(r.stutters))
		if sc.hedge {
			fig.Metric(fmt.Sprintf("hedges_issued/%s", sc.name), float64(r.hedges.Issued))
			fig.Metric(fmt.Sprintf("hedges_won/%s", sc.name), float64(r.hedges.Won))
			fig.Metric(fmt.Sprintf("hedges_lost/%s", sc.name), float64(r.hedges.Lost))
			fig.Metric(fmt.Sprintf("hedges_cancelled/%s", sc.name), float64(r.hedges.Cancelled))
		}
		if sc.evict {
			fig.Metric(fmt.Sprintf("evictions/%s", sc.name), float64(r.evictions))
		}
	}
	fig.Series = append(fig.Series, p50, p99, p999)
	return fig, nil
}

// failSlowRes is one scenario's measurement.
type failSlowRes struct {
	p50, p99, p999 des.Time
	served         int
	iops           float64
	hedges         core.HedgeCounters
	evictions      int64
	slowCommands   int64
	stutters       int64
}

// failSlowProfile is the injected degradation: every command on the bad
// drive takes 8x its mechanical time, and roughly every quarter second the
// drive stutters for tens of milliseconds at a further 4x — the firmware-
// stall shape fail-slow studies report (degradations of 10-100x are
// common in the field).
func failSlowProfile() disk.SlowProfile {
	return disk.SlowProfile{
		Factor:        8,
		StutterEvery:  250 * des.Millisecond,
		StutterFor:    50 * des.Millisecond,
		StutterFactor: 4,
	}
}

// failSlowVolume matches degradedVolume: small enough that the eviction
// rebuild finishes inside the drain, large enough to spread load.
const failSlowVolume = int64(1 << 18) // 128 MB

// failSlowWarmupFrac drops the leading fraction of completions before the
// percentiles are taken: it covers the cold start, the adaptive hedge
// delay's sample-collection phase, and (in the eviction scenario) the
// detection window, so the reported tail is the mitigated steady state.
const failSlowWarmupFrac = 0.4

// runFailSlow builds a RAID-10(6), optionally makes drive 0 fail-slow, and
// measures a closed loop of uniform random reads. Hedging uses the
// adaptive (observed-p99) delay; the eviction scenario adds a hot spare
// and an eviction threshold so the tracker proactively fail-stops the slow
// drive mid-run and the tail recovers to near-healthy.
func runFailSlow(slow, hedge, evict bool, ios int, seed int64) (failSlowRes, error) {
	cfg := layout.RAID10(6)
	sim, a, err := buildArray(cfg, policyFor(cfg), failSlowVolume, seed, func(o *coreOptions) {
		o.ObsLabel = fmt.Sprintf("fail-slow/slow=%t/hedge=%t/evict=%t", slow, hedge, evict)
		if slow {
			o.Faults.Slow = map[int]disk.SlowProfile{0: failSlowProfile()}
		}
		if hedge {
			o.Hedge = true
			// Eviction stays off unless the scenario asks for it
			// (detection-only mode).
			o.Health = core.HealthOptions{Enabled: true, EvictRatio: -1}
		}
		if evict {
			o.Spares = 1
			o.RebuildMBps = 100
			o.Health.EvictRatio = 2.5
		}
	})
	if err != nil {
		return failSlowRes{}, err
	}

	var res failSlowRes
	lats := make([]des.Time, 0, ios)
	start := sim.Now()
	end, err := readLoop("fail-slow", sim, a, ios, seed+211, func(r coreResult) {
		if !r.Failed {
			res.served++
			lats = append(lats, r.Latency())
		}
	})
	if err != nil {
		return failSlowRes{}, err
	}
	res.iops = measuredRate(res.served, start, end, 0)

	// Percentiles over the steady-state window (completion order is
	// deterministic, so the trim is too).
	warm := lats[int(float64(len(lats))*failSlowWarmupFrac):]
	res.p50 = stats.NearestRank(warm, 1, 2)
	res.p99 = stats.NearestRank(warm, 99, 100)
	res.p999 = stats.NearestRank(warm, 999, 1000)

	res.hedges = a.Hedges()
	fc := a.Faults()
	res.evictions = fc.Evictions
	res.slowCommands = fc.SlowCommands
	res.stutters = fc.Stutters
	return res, nil
}
