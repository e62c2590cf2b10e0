// Package calib implements MimdRAID's software-only disk head position
// prediction (paper Section 3.2) plus the supporting measurement machinery:
// rotation-period tracking from reference-sector reads, seek-curve and
// overhead profiling, Worthington-style geometry extraction from timing
// probes, and the slack-k feedback controller that keeps scheduled requests
// on rotational target.
//
// None of this peeks at the simulated drive's mechanical state: everything
// is inferred from host-visible completion timestamps, which in prototype
// mode are perturbed by the bus noise model. That is the point — the paper
// showed a driver can track a 10 kRPM spindle to ~1% of a rotation through
// OS and SCSI timing noise, and this package reproduces that claim against
// the simulated noise.
package calib

import (
	"fmt"
	"math"

	"repro/internal/bus"
	"repro/internal/des"
	"repro/internal/disk"
)

// obs is one reference-sector observation: the inferred mechanical
// completion time and its unwrapped rotation count since the first
// observation.
type obs struct {
	t des.Time
	n float64
}

// Tracker estimates a drive's true rotation period and phase from periodic
// reads of a fixed reference sector. The basic identity (paper Section 3.2)
// is that mechanical completions of reads of the same sector are spaced by
// exact multiples of the rotation period; the host-visible timestamps add
// only a (bounded, one-sided) overhead.
type Tracker struct {
	// RefLBA is the reference sector (default 0).
	RefLBA int64
	// RecalibrateEvery is the target interval between reference reads once
	// calibrated (the paper uses two minutes).
	RecalibrateEvery des.Time
	// Window is how many observations the regression keeps.
	Window int

	geom        *disk.Geometry
	refEndAngle float64  // platter angle when the reference read mechanically completes
	postMean    des.Time // completion-side overhead (incl. bus transfer) subtracted from timestamps

	rHat    des.Time // estimated rotation period
	history []obs
	lastObs des.Time
	calOK   bool
	anchorT des.Time // fitted mechanical time of the latest observation
	// lastExternal is the time of the latest opportunistic anchor update;
	// a fresh external anchor substitutes for a reference read.
	lastExternal des.Time

	// ObsCount counts reference-sector reads consumed (calibration cost).
	ObsCount int
}

// NewTracker builds a tracker for a drive with the given (extracted)
// geometry and nominal rotation period. postMean is the mean
// completion-side overhead to subtract from observed timestamps; it can
// come from MeasureOverheads.
func NewTracker(geom *disk.Geometry, nominalR des.Time, postMean des.Time) *Tracker {
	t := &Tracker{
		RefLBA:           0,
		RecalibrateEvery: 2 * des.Minute,
		Window:           24,
		geom:             geom,
		postMean:         postMean,
		rHat:             nominalR,
	}
	p, err := geom.LBAToPhys(t.RefLBA)
	if err != nil {
		panic(fmt.Sprintf("calib: reference LBA: %v", err))
	}
	// Mechanical completion happens when the *end* of the sector passes.
	t.refEndAngle = math.Mod(geom.SectorAngle(p)+geom.AngularWidth(p.Cyl), 1)
	return t
}

// R returns the current rotation-period estimate.
func (t *Tracker) R() des.Time { return t.rHat }

// RefCommand returns the read command used for calibration.
func (t *Tracker) RefCommand() bus.Command {
	return bus.Command{Op: bus.OpRead, LBA: t.RefLBA, Count: 1}
}

// Due reports whether a new reference read should be issued. During
// bootstrap the interval grows geometrically (1, 2, 4, ... rotations) to
// amortize overhead while extending the regression baseline, exactly as
// the paper describes; once the baseline covers RecalibrateEvery the
// tracker settles into the periodic regime.
func (t *Tracker) Due(now des.Time) bool {
	if len(t.history) == 0 {
		return true
	}
	if t.calOK && now-t.lastExternal < t.RecalibrateEvery/4 {
		// Opportunistic anchors are keeping the phase pinned; the period
		// estimate from the calibration baseline does not go stale, so
		// reference reads can be skipped entirely.
		return false
	}
	return now >= t.lastObs+t.nextInterval()
}

func (t *Tracker) nextInterval() des.Time {
	if len(t.history) < 2 {
		return t.rHat
	}
	span := t.history[len(t.history)-1].t - t.history[0].t
	if span < t.RecalibrateEvery {
		// Doubling regime: next gap = current baseline (so the baseline
		// doubles each read) but at least a couple of rotations.
		g := span
		if g < 2*t.rHat {
			g = 2 * t.rHat
		}
		return g
	}
	return t.RecalibrateEvery
}

// Observe feeds a completed reference-sector read into the tracker.
func (t *Tracker) Observe(comp bus.Completion) {
	if comp.Cmd.LBA != t.RefLBA || comp.Cmd.Op != bus.OpRead {
		return
	}
	t.ObsCount++
	mech := comp.Observed - t.postMean
	t.lastObs = comp.Observed
	if len(t.history) == 0 {
		t.history = append(t.history, obs{t: mech, n: 0})
		return
	}
	// Unwrap: the rotation count since the previous observation, using the
	// current period estimate. The doubling schedule guarantees the
	// estimate is always accurate enough that rounding is unambiguous.
	prev := t.history[len(t.history)-1]
	dn := math.Round(float64(mech-prev.t) / float64(t.rHat))
	if dn < 1 {
		dn = 1
	}
	t.history = append(t.history, obs{t: mech, n: prev.n + dn})
	if len(t.history) > t.Window {
		t.history = t.history[len(t.history)-t.Window:]
	}
	t.refit()
}

// refit runs least squares of time against rotation count, pruning gross
// outliers (rare OS scheduling glitches add milliseconds to a timestamp and
// would otherwise tilt the whole fit). The slope is the period; combined
// with the known angle of the reference sector this pins the phase.
func (t *Tracker) refit() {
	for pass := 0; pass < 3; pass++ {
		t.fitOnce()
		if len(t.history) <= 6 {
			return
		}
		// Drop the worst point if it is implausibly far off the line.
		worst, worstAbs := -1, 0.0
		for i, o := range t.history {
			resid := math.Abs(float64(o.t-t.anchorT) - float64(t.rHat)*(o.n-t.history[len(t.history)-1].n))
			if resid > worstAbs {
				worst, worstAbs = i, resid
			}
		}
		if worstAbs < 400 { // microseconds; far beyond normal jitter
			return
		}
		t.history = append(t.history[:worst], t.history[worst+1:]...)
	}
}

func (t *Tracker) fitOnce() {
	if len(t.history) < 2 {
		return
	}
	var sn, st float64
	for _, o := range t.history {
		sn += o.n
		st += float64(o.t)
	}
	k := float64(len(t.history))
	mn, mt := sn/k, st/k
	var num, den float64
	for _, o := range t.history {
		num += (o.n - mn) * (float64(o.t) - mt)
		den += (o.n - mn) * (o.n - mn)
	}
	if den == 0 {
		return
	}
	t.rHat = des.Time(num / den)
	// Anchor the phase on the regression line at the newest observation
	// rather than on the raw timestamp, so a single noisy or outlier read
	// cannot shift every prediction until the next recalibration.
	lastN := t.history[len(t.history)-1].n
	t.anchorT = des.Time(mt + float64(t.rHat)*(lastN-mn))
	t.calOK = len(t.history) >= 4
}

// anchor returns a recent (time, angle) pair on the fitted line.
func (t *Tracker) anchor() (des.Time, float64) {
	return t.anchorT, t.refEndAngle
}

// AngleAt predicts the platter angle at absolute time at, in [0,1).
// Callers must Bootstrap the tracker first.
func (t *Tracker) AngleAt(at des.Time) float64 {
	t0, a0 := t.anchor()
	a := a0 + float64(at-t0)/float64(t.rHat)
	a -= math.Floor(a)
	return a
}

// TimeToAngle predicts the delay from time at until the platter reaches
// the target angle.
func (t *Tracker) TimeToAngle(at des.Time, target float64) des.Time {
	diff := target - t.AngleAt(at)
	diff -= math.Floor(diff)
	return des.Time(diff * float64(t.rHat))
}

// OpportunisticObserve refines the phase anchor using the completion of an
// ordinary (non-reference) read whose final sector is known. The paper
// lists this as an unimplemented optimization ("we can exploit the timing
// information and known disk head location at the end of a request"); it
// is implemented here behind this method and ablated in the benchmarks.
// Only the phase anchor moves — the period estimate still comes from the
// reference regression, since a single noisy point carries no slope
// information.
func (t *Tracker) OpportunisticObserve(comp bus.Completion, endOfLast disk.Chs) {
	if !t.calOK {
		return
	}
	mech := comp.Observed - t.postMean
	endAngle := math.Mod(t.geom.SectorAngle(endOfLast)+t.geom.AngularWidth(endOfLast.Cyl), 1)
	// Residual between where the model says the platter was and where the
	// completed request proves it was; nudge the anchor by a damped step.
	pred := t.AngleAt(mech)
	resid := endAngle - pred
	resid -= math.Round(resid) // into [-0.5, 0.5)
	const gain = 0.15
	t.anchorT -= des.Time(resid * gain * float64(t.rHat))
	t.lastExternal = mech
}

// Bootstrap runs the initial calibration synchronously against a drive:
// it issues reference reads on the doubling schedule until the regression
// baseline reaches the recalibration interval. It owns the simulator loop
// while it runs, so call it before attaching the drive to an array.
func (t *Tracker) Bootstrap(sim *des.Sim, drv *bus.Drive) {
	for {
		done := false
		issue := func() {
			drv.Submit(t.RefCommand(), func(c bus.Completion) {
				t.Observe(c)
				done = true
			})
		}
		wait := des.Time(0)
		if len(t.history) > 0 {
			next := t.lastObs + t.nextInterval()
			if next > sim.Now() {
				wait = next - sim.Now()
			}
		}
		sim.After(wait, issue)
		for !done {
			if !sim.Step() {
				panic("calib: bootstrap stalled")
			}
		}
		if span := t.baselineSpan(); t.calOK && span >= t.RecalibrateEvery {
			return
		}
	}
}

func (t *Tracker) baselineSpan() des.Time {
	if len(t.history) < 2 {
		return 0
	}
	return t.history[len(t.history)-1].t - t.history[0].t
}
