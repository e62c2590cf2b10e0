package calib

import (
	"math"

	"repro/internal/des"
	"repro/internal/disk"
)

// AccessEstimator predicts the host-observed service time of a physical
// request. Position-aware schedulers (SATF/RSATF) rank candidates with it,
// and RLOOK/RSATF use it to choose among rotational replicas.
//
// A prediction has a part that depends only on where the data lies and a
// part that depends on the arm and the clock. Prepare computes the first
// once (a disk.Target); AccessPrepared and AccessRunPrepared evaluate the
// second against it. A target is valid only for the geometry that prepared
// it, so a holder keeps targets per drive.
type AccessEstimator interface {
	// Prepare computes into t the target of one extent against the
	// estimator's geometry. It panics on an extent the geometry rejects.
	Prepare(t *disk.Target, ext disk.Extent)
	// AccessPrepared predicts the service time of the prepared extent
	// submitted at time now with the arm at st.
	AccessPrepared(st disk.State, t *disk.Target, write bool, now des.Time) des.Time
	// AccessRunPrepared predicts the total service time of a multi-extent
	// run issued back-to-back (a replica fragmented at track boundaries).
	// A fragmented replica costs per-command overheads and possible missed
	// revolutions at every join, which is exactly what makes a contiguous
	// replica preferable for large transfers.
	AccessRunPrepared(st disk.State, ts []disk.Target, write bool, now des.Time) des.Time
	// AccessRun is AccessRunPrepared for unprepared extents, preparing one
	// target at a time. It stays because sched's fallback for a replica of
	// more extents than its two-target cache holds would otherwise need a
	// []disk.Target per call.
	AccessRun(st disk.State, extents []disk.Extent, write bool, now des.Time) des.Time
	// RotationPeriod returns the (estimated) rotation period, used by
	// schedulers for slack arithmetic and by models.
	RotationPeriod() des.Time
}

// mustPrepare prepares ext against g. Scheduling should never construct
// invalid extents; an error here is a layout bug, not a runtime condition.
func mustPrepare(g *disk.Geometry, t *disk.Target, ext disk.Extent) {
	if err := g.PrepareInto(t, disk.Request{Start: ext.Start, Count: ext.Count}); err != nil {
		panic(err)
	}
}

// Exact is the simulator-mode estimator: it asks the mechanical model
// directly and adds the fixed controller overhead. Predictions are perfect
// by construction, which is what makes the integrated simulator useful as
// a baseline for validating the prototype (paper Section 3.5).
type Exact struct {
	Dsk      *disk.Disk
	Overhead des.Time // fixed per-command pre+post overhead
}

// Prepare implements AccessEstimator.
func (e *Exact) Prepare(t *disk.Target, ext disk.Extent) { mustPrepare(e.Dsk.Geom, t, ext) }

// AccessPrepared implements AccessEstimator.
func (e *Exact) AccessPrepared(st disk.State, t *disk.Target, write bool, now des.Time) des.Time {
	total, _ := e.Dsk.AccessPrepared(st, t, write, now+e.Overhead/2)
	return total + e.Overhead
}

// AccessRun implements AccessEstimator by chaining the mechanical model
// across the extents.
func (e *Exact) AccessRun(st disk.State, extents []disk.Extent, write bool, now des.Time) des.Time {
	start := now
	var t disk.Target
	for _, ext := range extents {
		e.Prepare(&t, ext)
		now, st = e.chain(st, &t, write, now)
	}
	return now - start
}

// AccessRunPrepared implements AccessEstimator.
func (e *Exact) AccessRunPrepared(st disk.State, ts []disk.Target, write bool, now des.Time) des.Time {
	start := now
	for i := range ts {
		now, st = e.chain(st, &ts[i], write, now)
	}
	return now - start
}

// chain issues one command of a run at time now and returns when it ends
// and where it leaves the arm.
func (e *Exact) chain(st disk.State, t *disk.Target, write bool, now des.Time) (des.Time, disk.State) {
	total, end := e.Dsk.AccessPrepared(st, t, write, now+e.Overhead/2)
	return now + e.Overhead + total, end
}

// RotationPeriod implements AccessEstimator.
func (e *Exact) RotationPeriod() des.Time { return e.Dsk.R }

// Tracked is the prototype-mode estimator: it composes the measured seek
// curve, measured overheads, and the Tracker's rotation estimate. It never
// consults the drive's true mechanical state.
type Tracked struct {
	Geom       *disk.Geometry
	Seek       disk.SeekCurve
	HeadSwitch des.Time
	Pre, Post  des.Time // mean command overheads (Post includes bus transfer)
	Trk        *Tracker
	// Slack, if non-nil, contributes the conservative margin (in sectors)
	// added ahead of the target: predictions inside the margin are treated
	// as missing the target and costing a full extra rotation.
	Slack *SlackController
}

// Prepare implements AccessEstimator.
func (t *Tracked) Prepare(tg *disk.Target, ext disk.Extent) { mustPrepare(t.Geom, tg, ext) }

// AccessPrepared implements AccessEstimator. Only geometry is cached in the
// target; the tracker's rotation estimate and the slack are read now.
func (t *Tracked) AccessPrepared(st disk.State, tg *disk.Target, write bool, now des.Time) des.Time {
	r := t.Trk.R()
	move := t.Seek.Time(int(tg.Cyl)-st.Cyl, write)
	if int(tg.Head) != st.Head && t.HeadSwitch > move {
		move = t.HeadSwitch
	}
	arrive := now + t.Pre + move
	wait := t.Trk.TimeToAngle(arrive, tg.Angle)
	if t.Slack != nil {
		margin := des.Time(float64(t.Slack.K()) * (1 / float64(tg.SPT)) * float64(r))
		if wait < margin {
			wait += r
		}
	}
	xfer := des.Time(tg.Frac * float64(r))
	if tg.Rest > 0 {
		xfer = t.restTransfer(tg, r, xfer)
	}
	return t.Pre + move + wait + xfer + t.Post
}

// restTransfer adds to total, the first track's transfer, the estimated
// media transfer of the sectors past it, charging head switches at track
// boundaries. With correctly sized skews each boundary costs about the skew
// angle.
func (t *Tracked) restTransfer(tg *disk.Target, r, total des.Time) des.Time {
	cyl, head := int(tg.Cyl), int(tg.Head)
	z := t.Geom.ZoneOf(cyl)
	for remaining := int(tg.Rest); remaining > 0; {
		total += des.Time(float64(z.TrackSkew) / float64(z.SPT) * float64(r))
		cyl, head = t.Geom.NextTrack(cyl, head)
		z = t.Geom.ZoneOf(cyl)
		n := z.SPT
		if n > remaining {
			n = remaining
		}
		total += des.Time(float64(n) / float64(z.SPT) * float64(r))
		remaining -= n
	}
	return total
}

// AccessRun implements AccessEstimator by chaining AccessPrepared across
// the extents with the arm state updated between them.
func (t *Tracked) AccessRun(st disk.State, extents []disk.Extent, write bool, now des.Time) des.Time {
	start := now
	var tg disk.Target
	for _, ext := range extents {
		t.Prepare(&tg, ext)
		now += t.AccessPrepared(st, &tg, write, now)
		st = tg.End()
	}
	return now - start
}

// AccessRunPrepared implements AccessEstimator.
func (t *Tracked) AccessRunPrepared(st disk.State, ts []disk.Target, write bool, now des.Time) des.Time {
	start := now
	for i := range ts {
		now += t.AccessPrepared(st, &ts[i], write, now)
		st = ts[i].End()
	}
	return now - start
}

// RotationPeriod implements AccessEstimator.
func (t *Tracked) RotationPeriod() des.Time { return t.Trk.R() }

// PredictionRecord pairs a prediction with its measurement for accuracy
// accounting (paper Table 2).
type PredictionRecord struct {
	Predicted, Measured des.Time
}

// Error returns measured minus predicted.
func (p PredictionRecord) Error() des.Time { return p.Measured - p.Predicted }

// IsRotationMiss reports whether the request lost (at least) a rotation
// relative to the prediction.
func (p PredictionRecord) IsRotationMiss(r des.Time) bool {
	return float64(p.Error()) > 0.8*float64(r)
}

// AccuracyStats aggregates prediction records into the paper's Table 2
// metrics.
type AccuracyStats struct {
	records []PredictionRecord
}

// Add appends a record.
func (a *AccuracyStats) Add(rec PredictionRecord) { a.records = append(a.records, rec) }

// Merge appends all of b's records.
func (a *AccuracyStats) Merge(b *AccuracyStats) { a.records = append(a.records, b.records...) }

// N returns the number of records.
func (a *AccuracyStats) N() int { return len(a.records) }

// Report computes miss rate, mean error, error standard deviation, mean
// measured access time, and the demerit figure (RMS prediction error, after
// Ruemmler & Wilkes).
func (a *AccuracyStats) Report(r des.Time) (missRate float64, meanErr, stdErr, meanAccess, demerit des.Time) {
	if len(a.records) == 0 {
		return 0, 0, 0, 0, 0
	}
	var sum, sumSq, acc float64
	misses := 0
	for _, rec := range a.records {
		e := float64(rec.Error())
		sum += e
		sumSq += e * e
		acc += float64(rec.Measured)
		if rec.IsRotationMiss(r) {
			misses++
		}
	}
	n := float64(len(a.records))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return float64(misses) / n, des.Time(mean), des.Time(math.Sqrt(variance)),
		des.Time(acc / n), des.Time(math.Sqrt(sumSq / n))
}
