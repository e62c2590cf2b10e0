package disk

import (
	"fmt"
	"math"
)

// Target is the part of an access-time estimate that depends only on where
// the data lies: everything Service derives from a request's location and
// length before it looks at the arm or the clock. A position-aware
// scheduler re-scores the same candidate at every dispatch while it waits in
// the queue; preparing it once leaves each score one positioning lookup and
// one rotational wait (see Disk.AccessPrepared).
//
// A Target holds no timing: the transfer is kept as a fraction of a
// revolution, so a target is a pure function of the geometry and serves
// estimators whose rotation period moves (calib.Tracked). It is valid only
// for the Geometry that prepared it: two drives built from one Spec differ
// in their skews when their spindle speeds do (Spec.New sizes the skews from
// the rotation period), and then the same sector starts at different angles.
//
// The zero Target is "not prepared" (Prepared reports false); holders cache
// targets lazily on that.
type Target struct {
	// Angle is the platter angle of the leading edge of the first sector,
	// in [0,1).
	Angle float64
	// Frac is the fraction of a revolution that transferring the first
	// track's share of the request takes: sectors on that track / SPT.
	Frac float64
	// Cyl and Head name the first track.
	Cyl, Head int32
	// SPT is the first track's sector count (a sector's angular width is
	// 1/SPT).
	SPT int32
	// Rest is the number of sectors that continue past the end of the first
	// track, onto the following tracks from their sector 0. Zero for the
	// single-track requests array layouts issue.
	Rest int32
}

// Prepared reports whether t came from Prepare.
func (t *Target) Prepared() bool { return t.SPT != 0 }

// End returns the arm state after an access that stays on the first track.
func (t *Target) End() State { return State{Cyl: int(t.Cyl), Head: int(t.Head)} }

// PrepareInto validates req and computes its Target into t (in place: the
// schedulers prepare into the slot where the target will be cached). It
// reports exactly the errors Service does, so evaluating a prepared target
// cannot fail. On error t is left untouched.
func (g *Geometry) PrepareInto(t *Target, req Request) error {
	if req.Count <= 0 {
		return fmt.Errorf("disk: non-positive sector count %d", req.Count)
	}
	if req.Count > math.MaxInt32 {
		return fmt.Errorf("disk: sector count %d too large", req.Count)
	}
	z, err := g.validate(req.Start)
	if err != nil {
		return err
	}
	n := z.SPT - req.Start.Sector
	if n >= req.Count {
		n = req.Count
	} else if g.physIndexIn(z, req.Start)+int64(req.Count) > g.totalPhys {
		// Tracks follow each other in physical-index order, so the run
		// leaves the disk exactly when its last sector's index does.
		return fmt.Errorf("disk: transfer runs off the end of the disk")
	}
	g.trackTarget(t, z, req.Start, n, req.Count-n)
	return nil
}

// trackTarget sets t to the target of n sectors starting at p, all on p's
// track in zone z, with rest sectors to follow on later tracks. (Field by
// field: a composite literal is assembled on the stack and copied over,
// and the wide loads of that copy stall behind the narrow stores.)
func (g *Geometry) trackTarget(t *Target, z *Zone, p Chs, n, rest int) {
	t.Angle = g.sectorAngleIn(z, p)
	t.Frac = float64(n) / float64(z.SPT)
	t.Cyl = int32(p.Cyl)
	t.Head = int32(p.Head)
	t.SPT = int32(z.SPT)
	t.Rest = int32(rest)
}

// NextTrack returns the track that physically follows (cyl, head): the next
// surface of the cylinder, else the first surface of the next cylinder.
func (g *Geometry) NextTrack(cyl, head int) (int, int) {
	if head+1 < g.Heads {
		return cyl, head + 1
	}
	return cyl + 1, 0
}
