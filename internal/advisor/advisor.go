// Package advisor implements the paper's stated future work: "Ivy
// dynamically chose the candidate and the degree of replication by
// observing access patterns... We are currently researching a wide range
// of access patterns that can be used to dynamically tune the array
// configuration" (Section 5).
//
// A Monitor ingests the live request stream and maintains online
// estimates of the model parameters of Section 2 — the
// foreground-propagation ratio p, the per-disk queue length q, and the
// seek-locality index L — using exponentially weighted moving averages,
// so the estimates track workload phase changes. Recommend runs the
// paper's aspect-ratio optimizer on the current estimates, and Drift
// quantifies how far the running configuration is from the recommended
// one in model-predicted latency.
package advisor

import (
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/model"
)

// ewma is a bias-corrected exponentially weighted moving average (the
// zero initialization would otherwise drag estimates toward zero for the
// first half-life's worth of samples).
type ewma struct {
	alpha float64
	raw   float64
	decay float64 // (1-alpha)^n
}

func newEWMA(halfLife float64) ewma {
	return ewma{alpha: 1 - math.Exp(-math.Ln2/halfLife), decay: 1}
}

func (e *ewma) add(sample float64) {
	e.raw = (1-e.alpha)*e.raw + e.alpha*sample
	e.decay *= 1 - e.alpha
}

func (e *ewma) value() float64 {
	if e.decay >= 1 {
		return 0
	}
	return e.raw / (1 - e.decay)
}

// Monitor estimates workload parameters online.
type Monitor struct {
	dataSectors int64
	n           int64

	meanDelta  ewma // |Δoffset| in sectors
	readFrac   ewma // reads per I/O
	asyncFrac  ewma // async writes per I/O
	forcedFrac ewma // foreground-forced propagation per write
	queue      ewma // observed per-disk queue depth

	prevOff int64
	hasPrev bool
}

// halfLife is the observation count at which an old sample's weight has
// decayed to one half.
const halfLife = 2000

// NewMonitor builds a monitor for a volume of dataSectors sectors.
func NewMonitor(dataSectors int64) *Monitor {
	return &Monitor{
		dataSectors: dataSectors,
		meanDelta:   newEWMA(halfLife),
		readFrac:    newEWMA(halfLife),
		asyncFrac:   newEWMA(halfLife),
		forcedFrac:  newEWMA(halfLife),
		queue:       newEWMA(halfLife),
	}
}

// Observation is one request as seen by the array.
type Observation struct {
	Off   int64
	Count int
	Write bool
	Async bool
	// QueueDepth is the per-disk foreground queue length at submit.
	QueueDepth int
	// Forced reports that this write's replica propagation had to run in
	// the foreground (no idle time) — the (1-p) event of Eq. 8.
	Forced bool
}

// Observe ingests one request.
func (m *Monitor) Observe(o Observation) {
	m.n++
	if m.hasPrev {
		d := float64(o.Off - m.prevOff)
		if d < 0 {
			d = -d
		}
		m.meanDelta.add(d)
	}
	m.prevOff, m.hasPrev = o.Off, true

	b := 0.0
	if !o.Write {
		b = 1
	}
	m.readFrac.add(b)
	b = 0
	if o.Write && o.Async {
		b = 1
	}
	m.asyncFrac.add(b)
	if o.Write {
		b = 0
		if o.Forced {
			b = 1
		}
		m.forcedFrac.add(b)
	}
	m.queue.add(float64(o.QueueDepth))
}

// Ready reports whether enough observations exist for stable estimates.
func (m *Monitor) Ready() bool { return m.n >= 200 }

// P estimates Eq. 8's ratio: the fraction of I/Os that do not force
// foreground replica propagation. Reads and background-propagated writes
// count toward p; only foreground-forced writes count against it.
func (m *Monitor) P() float64 {
	writeFrac := 1 - m.readFrac.value()
	return 1 - writeFrac*m.forcedFrac.value()
}

// Q estimates the per-disk queue length (busyness).
func (m *Monitor) Q() float64 {
	if q := m.queue.value(); q > 1 {
		return q
	}
	return 1
}

// L estimates the seek-locality index: average random seek distance over
// average observed seek distance.
func (m *Monitor) L() float64 {
	d := m.meanDelta.value()
	if d <= 0 {
		return 1
	}
	l := float64(m.dataSectors) / 3 / d
	if l < 1 {
		return 1
	}
	return l
}

// Recommend runs the paper's optimizer on the live estimates for a budget
// of d disks of the given spec.
func (m *Monitor) Recommend(spec disk.Spec, d int) (layout.Config, error) {
	if !m.Ready() {
		return layout.Config{}, fmt.Errorf("advisor: only %d observations, need 200", m.n)
	}
	md := model.Disk{S: spec.MaxSeek, R: des.Time(60e6 / spec.RPM)}
	ds, dr, err := model.Optimize(md, d, m.P(), m.Q(), m.L(), func(dr int) bool {
		return spec.Heads%dr == 0
	})
	if err != nil {
		return layout.Config{}, err
	}
	return layout.SRArray(ds, dr), nil
}

// Drift returns the model-predicted latency of the current configuration
// divided by that of the recommended one — 1.0 means the array is running
// the recommendation, 1.3 means a reconfiguration would be worth ~23% of
// response time. Because the paper's integer rounding rule ("largest
// factor below the real-valued optimum") is a heuristic, drift can dip
// slightly below 1 for neighboring aspect ratios; treat values inside
// roughly ±15% as in tune and reconfigure only on larger drift.
func (m *Monitor) Drift(spec disk.Spec, current layout.Config) (float64, error) {
	rec, err := m.Recommend(spec, current.Disks())
	if err != nil {
		return 0, err
	}
	md := model.Disk{S: spec.MaxSeek, R: des.Time(60e6 / spec.RPM)}
	curLat := model.LatencyInt(md, current.Ds, current.Dr*current.Dm, m.P(), m.Q(), m.L())
	recLat := model.LatencyInt(md, rec.Ds, rec.Dr*rec.Dm, m.P(), m.Q(), m.L())
	if recLat <= 0 {
		return 0, fmt.Errorf("advisor: degenerate model latency")
	}
	return float64(curLat) / float64(recLat), nil
}
