package main

import (
	"strings"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/obs"
)

// counters are a stack's cumulative layer totals at one instant. The
// layers count from construction, so a traced run reads them when the
// spans switch on and again inside its last request's window, and reports
// the difference: the per-layer counts then cover the same requests as the
// spans do, not the set-up's warm-up pass as well. Keys under "raw." feed
// the means and shares layersFrom derives; every other key is a per-layer
// metric by name.
type counters map[string]float64

// gauges are the counters that are states or set-up facts, not running
// totals: reported as last read, never as a difference.
var gauges = []string{"raw.drives", "slo.level_final", "tracegen.generate_s"}

// since returns c - before, gauges as c holds them.
func (c counters) since(before counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - before[k]
	}
	for _, k := range gauges {
		if v, ok := c[k]; ok {
			d[k] = v
		}
	}
	return d
}

// obsCounters reads the obs registry a traced stack attached: what the
// modelled drives and their schedulers did, summed over every array of the
// stack.
func obsCounters(c counters, reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, r := range reg.Recorders() {
		c["raw.drives"] += float64(r.Drives())
		c["raw.nvram_sum"] += float64(r.NVRAM.Sum)
		c["raw.nvram_n"] += float64(r.NVRAM.Samples)
		c["core.rebuild_chunks"] += float64(r.ChunksDone)
		for i := 0; i < r.Drives(); i++ {
			d := r.Drive(i)
			for cl := obs.Class(0); cl < obs.NumClasses; cl++ {
				for op := obs.Op(0); op < obs.NumOps; op++ {
					h := &d.Service[cl][op]
					c["raw.busy_us"] += float64(h.SumUS)
					if cl == obs.Background || cl == obs.Delayed {
						c["raw.bg_dispatches"] += float64(h.Count)
					}
					if cl == obs.Foreground {
						c["raw.fg_n"] += float64(h.Count)
						c["raw.fg_us"] += float64(h.SumUS)
						c["raw.wait_n"] += float64(d.Wait[cl][op].Count)
						c["raw.wait_us"] += float64(d.Wait[cl][op].SumUS)
					}
				}
			}
			c["raw.dispatches"] += float64(d.Dispatches)
			c["raw.picks"] += float64(d.Picks)
			c["raw.predicted_us"] += float64(d.PredictedUS)
			c["raw.depth_sum"] += float64(d.QueueDepth.Sum)
			c["raw.depth_n"] += float64(d.QueueDepth.Samples)
			c["core.retries"] += float64(d.Retries)
			c["core.failovers"] += float64(d.Failovers)
		}
	}
}

// volumeCounters reads the fault, hedge and admission counters every
// core.Volume exposes (a cluster sums its bricks').
func volumeCounters(c counters, v core.Volume) {
	f := v.Faults()
	c["core.failed"] = float64(f.FailedReads + f.FailedWrites)
	c["core.hedges_issued"] = float64(v.Hedges().Issued)
	sh := v.Sheds()
	c["core.sheds"] = float64(sh.Overload + sh.Deadline)
}

// layersFrom stores what the layers counted over a traced phase of ops
// requests and elapsed simulated time: the plain counts by name, and the
// means and shares derived from the raw totals.
func layersFrom(m map[string]float64, d counters, ops int, elapsed des.Time) {
	for k, v := range d {
		if !strings.HasPrefix(k, "raw.") {
			m[k] = v
		}
	}
	m["disk.sim_service_ms_mean"] = ratio(d["raw.fg_us"], d["raw.fg_n"]) / 1000
	m["disk.sim_busy_share"] = ratio(d["raw.busy_us"], d["raw.drives"]*float64(elapsed))
	m["sched.picks_per_op"] = d["raw.picks"] / float64(ops)
	m["sched.queue_len_mean"] = ratio(d["raw.depth_sum"], d["raw.depth_n"])
	m["sched.sim_wait_ms_mean"] = ratio(d["raw.wait_us"], d["raw.wait_n"]) / 1000
	m["sched.sim_predicted_ms_mean"] = ratio(d["raw.predicted_us"], d["raw.picks"]) / 1000
	m["core.bg_dispatch_share"] = ratio(d["raw.bg_dispatches"], d["raw.dispatches"])
	m["core.nvram_entries_mean"] = ratio(d["raw.nvram_sum"], d["raw.nvram_n"])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
