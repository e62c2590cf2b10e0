package disk

import (
	"fmt"
	"math"

	"repro/internal/des"
)

// State is the mechanical state of a drive between requests: where the arm
// is parked and which surface was last active. The rotational position is
// not part of the state — the platters spin continuously, so the angle is a
// pure function of absolute time (see Disk.AngleAt).
type State struct {
	Cyl  int
	Head int
}

// Request describes one physical transfer.
type Request struct {
	Start Chs
	Count int // sectors
	Write bool
}

// Timing breaks down the cost of servicing a request.
type Timing struct {
	Seek     des.Time // arm movement, including write settle
	Rotate   des.Time // rotational wait before the first sector
	Transfer des.Time // media transfer, including intermediate switches
	Done     des.Time // absolute completion time
	End      State    // arm state after the transfer
}

// Total returns the service time excluding any controller overhead.
func (t Timing) Total() des.Time { return t.Seek + t.Rotate + t.Transfer }

// Disk is a simulated drive: static geometry plus mechanics. Methods are
// pure with respect to simulated time; the caller (the bus layer) owns
// sequencing.
type Disk struct {
	Name string
	Geom *Geometry
	Seek SeekCurve

	// R is the true rotation period. For a prototype-mode device this is
	// deliberately offset from the nominal (datasheet) period by up to a
	// few hundredths of a percent, as real spindles are; the head-tracking
	// layer must estimate it from observed timings.
	R des.Time
	// NominalR is the datasheet rotation period (from RPM).
	NominalR des.Time
	// Phase is the platter angle at simulated time zero, in [0,1).
	Phase float64
	// HeadSwitch is the time to activate a different head within a
	// cylinder (the paper's ~900us "track switch").
	HeadSwitch des.Time
}

// AngleAt returns the platter angle at absolute time t, in [0,1).
func (d *Disk) AngleAt(t des.Time) float64 {
	a := d.Phase + float64(t)/float64(d.R)
	a -= math.Floor(a)
	return a
}

// TimeToAngle returns the delay from time t until the platter reaches
// angle target (in [0,1)).
func (d *Disk) TimeToAngle(t des.Time, target float64) des.Time {
	cur := d.AngleAt(t)
	diff := target - cur
	diff -= math.Floor(diff) // into [0,1)
	return des.Time(diff * float64(d.R))
}

// positioningTo returns the time to move the arm and select the head for
// track (cyl,head), given the previous state.
func (d *Disk) positioningTo(st State, cyl, head int, write bool) des.Time {
	move := d.Seek.Time(cyl-st.Cyl, write)
	if head != st.Head {
		// Head switches overlap with short arm moves; the drive reports
		// whichever dominates.
		sw := d.HeadSwitch
		if write {
			sw += d.Seek.WriteSettle / 2
		}
		if sw > move {
			move = sw
		}
	}
	return move
}

// step is the one mechanical step every access is made of: from arm state
// st at time now, position onto t's track, wait for its first sector to
// come round, and transfer that track's share of the request. Service and
// the prepared evaluation both run on it, which is what keeps a scheduler's
// prediction bit-identical to the service the drive then performs.
func (d *Disk) step(st State, t *Target, write bool, now des.Time) (pos, rot, xfer des.Time) {
	pos = d.positioningTo(st, int(t.Cyl), int(t.Head), write)
	rot = d.TimeToAngle(now+pos, t.Angle)
	xfer = des.Time(t.Frac * float64(d.R))
	return pos, rot, xfer
}

// Prepare validates req against the drive's geometry and computes its
// Target (see Geometry.PrepareInto).
func (d *Disk) Prepare(req Request) (Target, error) {
	var t Target
	err := d.Geom.PrepareInto(&t, req)
	return t, err
}

// AccessPrepared returns the total service time (seek + rotate + transfer)
// of a prepared request started at time start with arm state st, and the
// arm state it leaves. It is the estimator position-aware schedulers use in
// simulator mode, where the true mechanical parameters are known exactly,
// and equals Service's Total and End to the bit.
func (d *Disk) AccessPrepared(st State, t *Target, write bool, start des.Time) (des.Time, State) {
	if t.Rest == 0 {
		pos, rot, xfer := d.step(st, t, write, start)
		return pos + rot + xfer, t.End()
	}
	var tm Timing
	d.service(&tm, st, t, write, start)
	return tm.Total(), tm.End
}

// service computes into tm the full timing of a prepared request started at
// time start with arm state st.
func (d *Disk) service(tm *Timing, st State, t *Target, write bool, start des.Time) {
	pos, rot, xfer := d.step(st, t, write, start)
	tm.Seek, tm.Rotate, tm.Transfer = pos, rot, xfer
	now := start + pos + rot + xfer
	cyl, head := int(t.Cyl), int(t.Head)
	for remaining := int(t.Rest); remaining > 0; {
		// Mid-transfer switches are part of the transfer cost: position
		// from wherever the previous track left the arm.
		prev := State{Cyl: cyl, Head: head}
		cyl, head = d.Geom.NextTrack(cyl, head)
		z := d.Geom.ZoneOf(cyl)
		n := z.SPT
		if n > remaining {
			n = remaining
		}
		var next Target
		d.Geom.trackTarget(&next, z, Chs{Cyl: cyl, Head: head}, n, 0)
		pos, rot, xfer = d.step(prev, &next, write, now)
		tm.Transfer += pos
		tm.Transfer += rot
		tm.Transfer += xfer
		now += pos
		now += rot
		now += xfer
		remaining -= n
	}
	tm.Done = now
	tm.End = State{Cyl: cyl, Head: head}
}

// Service computes the full timing of a physical request started at time
// start with arm state st. Multi-track transfers pay head switches and
// single-cylinder seeks at boundaries; thanks to skew these usually cost
// less than a full extra rotation.
func (d *Disk) Service(st State, req Request, start des.Time) (tm Timing, err error) {
	var t Target
	if err = d.Geom.PrepareInto(&t, req); err != nil {
		return Timing{}, err
	}
	d.service(&tm, st, &t, req.Write, start)
	return tm, nil
}

// ServiceLBA is Service for a logical (LBA-addressed) request, as issued
// over the bus. Defect slipping means an LBA run may not be physically
// contiguous; the mapping is resolved per-sector run.
func (d *Disk) ServiceLBA(st State, lba int64, count int, write bool, start des.Time) (Timing, error) {
	if count <= 0 {
		return Timing{}, fmt.Errorf("disk: non-positive sector count %d", count)
	}
	// Fast path: whole run physically contiguous (no defects inside).
	first, err := d.Geom.LBAToPhys(lba)
	if err != nil {
		return Timing{}, err
	}
	last, err := d.Geom.LBAToPhys(lba + int64(count) - 1)
	if err != nil {
		return Timing{}, err
	}
	if d.Geom.physIndex(last)-d.Geom.physIndex(first) == int64(count)-1 {
		return d.Service(st, Request{Start: first, Count: count, Write: write}, start)
	}
	// Slow path: split at defects.
	var total Timing
	now := start
	cur := st
	firstChunk := true
	for i := 0; i < count; {
		p, err := d.Geom.LBAToPhys(lba + int64(i))
		if err != nil {
			return Timing{}, err
		}
		run := 1
		base := d.Geom.physIndex(p)
		for i+run < count {
			q, err := d.Geom.LBAToPhys(lba + int64(i+run))
			if err != nil {
				return Timing{}, err
			}
			if d.Geom.physIndex(q) != base+int64(run) {
				break
			}
			run++
		}
		tm, err := d.Service(cur, Request{Start: p, Count: run, Write: write}, now)
		if err != nil {
			return Timing{}, err
		}
		if firstChunk {
			total.Seek = tm.Seek
			total.Rotate = tm.Rotate
			total.Transfer += tm.Transfer
			firstChunk = false
		} else {
			total.Transfer += tm.Total()
		}
		now = tm.Done
		cur = tm.End
		i += run
	}
	total.Done = now
	total.End = cur
	return total, nil
}
