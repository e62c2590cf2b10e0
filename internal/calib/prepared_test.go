package calib

import (
	"math/rand"
	"testing"

	"repro/internal/des"
	"repro/internal/disk"
)

// refTrackedAccess is Tracked.Access as it was before targets were
// prepared: every geometric quantity looked up from the request on the
// spot. The prepared form must reproduce it to the bit.
func refTrackedAccess(t *Tracked, st disk.State, req disk.Request, now des.Time) des.Time {
	r := t.Trk.R()
	move := t.Seek.Time(req.Start.Cyl-st.Cyl, req.Write)
	if req.Start.Head != st.Head && t.HeadSwitch > move {
		move = t.HeadSwitch
	}
	arrive := now + t.Pre + move
	wait := t.Trk.TimeToAngle(arrive, t.Geom.SectorAngle(req.Start))
	if t.Slack != nil {
		margin := des.Time(float64(t.Slack.K()) * t.Geom.AngularWidth(req.Start.Cyl) * float64(r))
		if wait < margin {
			wait += r
		}
	}
	remaining := req.Count
	cur := req.Start
	var xfer des.Time
	for remaining > 0 {
		spt := t.Geom.SPTOf(cur.Cyl)
		n := spt - cur.Sector
		if n > remaining {
			n = remaining
		}
		xfer += des.Time(float64(n) / float64(spt) * float64(r))
		remaining -= n
		if remaining > 0 {
			z := t.Geom.ZoneOf(cur.Cyl)
			xfer += des.Time(float64(z.TrackSkew) / float64(spt) * float64(r))
			if cur.Head+1 < t.Geom.Heads {
				cur = disk.Chs{Cyl: cur.Cyl, Head: cur.Head + 1}
			} else {
				cur = disk.Chs{Cyl: cur.Cyl + 1, Head: 0}
			}
		}
	}
	return t.Pre + move + wait + xfer + t.Post
}

func refTrackedRun(t *Tracked, st disk.State, extents []disk.Extent, write bool, now des.Time) des.Time {
	start := now
	for _, ext := range extents {
		now += refTrackedAccess(t, st, disk.Request{Start: ext.Start, Count: ext.Count, Write: write}, now)
		st = disk.State{Cyl: ext.Start.Cyl, Head: ext.Start.Head}
	}
	return now - start
}

// refExactAccess and refExactRun are Exact's two predictions spelled out on
// Disk.Service (itself pinned to the long-hand model by the disk package's
// FuzzPreparedAccess).
func refExactAccess(e *Exact, st disk.State, req disk.Request, now des.Time) des.Time {
	tm, err := e.Dsk.Service(st, req, now+e.Overhead/2)
	if err != nil {
		panic(err)
	}
	return tm.Total() + e.Overhead
}

func refExactRun(e *Exact, st disk.State, extents []disk.Extent, write bool, now des.Time) des.Time {
	start := now
	for _, ext := range extents {
		tm, err := e.Dsk.Service(st, disk.Request{Start: ext.Start, Count: ext.Count, Write: write}, now+e.Overhead/2)
		if err != nil {
			panic(err)
		}
		now = now + e.Overhead + tm.Total()
		st = tm.End
	}
	return now - start
}

// estimateBase lends the fuzzed drives its seek curve and timing.
var estimateBase = disk.ST39133LWV().MustNew()

// fuzzDrive builds a drive with a seeded random zoned geometry and skews.
func fuzzDrive(seed int64) *disk.Disk {
	rng := rand.New(rand.NewSource(seed))
	zones := make([]int, 1+rng.Intn(4))
	for i := range zones {
		zones[i] = 4 + rng.Intn(60)
	}
	g, err := disk.NewGeometry(len(zones)+rng.Intn(40), 1+rng.Intn(5), 0, zones, nil)
	if err != nil {
		panic(err)
	}
	for i := range g.Zones {
		z := &g.Zones[i]
		z.TrackSkew, z.CylSkew = rng.Intn(z.SPT), rng.Intn(z.SPT)
	}
	return &disk.Disk{
		Geom: g, Seek: estimateBase.Seek, HeadSwitch: estimateBase.HeadSwitch,
		R: estimateBase.R * des.Time(0.9997+0.0006*rng.Float64()), NominalR: estimateBase.R,
		Phase: rng.Float64(),
	}
}

// sectorsToEnd counts the physical sectors from p to the end of the disk.
func sectorsToEnd(g *disk.Geometry, p disk.Chs) int {
	n := g.SPTOf(p.Cyl)*(g.Heads-p.Head) - p.Sector
	for c := p.Cyl + 1; c < g.Cylinders; c++ {
		n += g.SPTOf(c) * g.Heads
	}
	return n
}

// fuzzExtent maps raw fuzz values onto a valid extent of g.
func fuzzExtent(g *disk.Geometry, cyl uint16, head uint8, sector, count uint16) disk.Extent {
	p := disk.Chs{Cyl: int(cyl) % g.Cylinders, Head: int(head) % g.Heads}
	p.Sector = int(sector) % g.SPTOf(p.Cyl)
	return disk.Extent{Start: p, Count: 1 + int(count)%sectorsToEnd(g, p)}
}

// access predicts one unprepared request the way a one-off caller does:
// prepare a target, then evaluate it.
func access(est AccessEstimator, st disk.State, req disk.Request, now des.Time) des.Time {
	var tg disk.Target
	est.Prepare(&tg, disk.Extent{Start: req.Start, Count: req.Count})
	return est.AccessPrepared(st, &tg, req.Write, now)
}

// checkEstimator asserts that an estimator's three entry points agree with
// its long-hand reference on a run of extents and on the run's first extent
// alone.
func checkEstimator(t *testing.T, est AccessEstimator, st disk.State, run []disk.Extent, write bool, now des.Time,
	refAccess func(disk.State, disk.Request, des.Time) des.Time,
	refRun func(disk.State, []disk.Extent, bool, des.Time) des.Time) {
	t.Helper()
	req := disk.Request{Start: run[0].Start, Count: run[0].Count, Write: write}
	var tg disk.Target
	est.Prepare(&tg, run[0])
	want := refAccess(st, req, now)
	if got := est.AccessPrepared(st, &tg, write, now); got != want {
		t.Fatalf("%T.AccessPrepared(%+v from %+v at %v) = %v, reference %v", est, req, st, now, got, want)
	}
	tgs := make([]disk.Target, len(run))
	for i, e := range run {
		est.Prepare(&tgs[i], e)
	}
	want = refRun(st, run, write, now)
	if got := est.AccessRun(st, run, write, now); got != want {
		t.Fatalf("%T.AccessRun(%+v from %+v at %v) = %v, reference %v", est, run, st, now, got, want)
	}
	if got := est.AccessRunPrepared(st, tgs, write, now); got != want {
		t.Fatalf("%T.AccessRunPrepared(%+v from %+v at %v) = %v, reference %v", est, run, st, now, got, want)
	}
}

// checkEstimators runs checkEstimator over Exact and over Tracked with and
// without a slack controller.
func checkEstimators(t *testing.T, d *disk.Disk, st disk.State, run []disk.Extent, write bool, now des.Time, slackK int) {
	t.Helper()
	e := &Exact{Dsk: d, Overhead: 300}
	checkEstimator(t, e, st, run, write, now,
		func(st disk.State, req disk.Request, now des.Time) des.Time { return refExactAccess(e, st, req, now) },
		func(st disk.State, run []disk.Extent, w bool, now des.Time) des.Time {
			return refExactRun(e, st, run, w, now)
		})
	for _, slack := range []*SlackController{nil, NewSlackController(slackK)} {
		tr := &Tracked{
			Geom: d.Geom, Seek: d.Seek, HeadSwitch: d.HeadSwitch, Pre: 120, Post: 210,
			Trk: NewTracker(d.Geom, d.NominalR, 150), Slack: slack,
		}
		checkEstimator(t, tr, st, run, write, now,
			func(st disk.State, req disk.Request, now des.Time) des.Time {
				return refTrackedAccess(tr, st, req, now)
			},
			func(st disk.State, run []disk.Extent, w bool, now des.Time) des.Time {
				return refTrackedRun(tr, st, run, w, now)
			})
	}
}

func TestPreparedEstimatesMatchReference(t *testing.T) {
	d := disk.ST39133LWV().MustNew()
	g := d.Geom
	z0, z1 := g.Zones[0], g.Zones[1]
	lastCyl, lastHead := g.Cylinders-1, g.Heads-1
	runs := [][]disk.Extent{
		{{Start: disk.Chs{Cyl: 100, Head: 3, Sector: 17}, Count: 8}},
		// The layout's wrapped replica: to the end of the track, then its start.
		{{Start: disk.Chs{Cyl: 100, Head: 3, Sector: z0.SPT - 5}, Count: 5}, {Start: disk.Chs{Cyl: 100, Head: 3}, Count: 11}},
		// Ends exactly at a track end.
		{{Start: disk.Chs{Cyl: 100, Head: 3, Sector: z0.SPT - 8}, Count: 8}},
		// A fused multi-track run: head switch, then cylinder switch.
		{{Start: disk.Chs{Cyl: 100, Head: lastHead - 1, Sector: 9}, Count: 2*z0.SPT + 30}},
		// Across a zone boundary.
		{{Start: disk.Chs{Cyl: z0.EndCyl, Head: lastHead, Sector: z0.SPT - 3}, Count: z1.SPT + 10}},
		// Onto the last track of the disk.
		{{Start: disk.Chs{Cyl: lastCyl, Head: lastHead - 1, Sector: 4}, Count: 2*g.SPTOf(lastCyl) - 4}},
		// Three extents: more than the scheduler's replica cache holds.
		{{Start: disk.Chs{Cyl: 7, Head: 1, Sector: 1}, Count: 3}, {Start: disk.Chs{Cyl: 900, Head: 2}, Count: 300}, {Start: disk.Chs{Cyl: 7, Head: 0, Sector: 50}, Count: 64}},
	}
	for _, run := range runs {
		for _, st := range []disk.State{{}, {Cyl: 100, Head: 3}, {Cyl: lastCyl, Head: lastHead}} {
			for _, now := range []des.Time{0, 1234.5, 7e6 + 0.25} {
				for _, write := range []bool{false, true} {
					checkEstimators(t, d, st, run, write, now, 4)
				}
			}
		}
	}
}

// FuzzPreparedEstimate checks Exact and Tracked (with and without slack)
// against their long-hand references over random zoned geometries, arm
// states, start times, reads and writes, on a two-extent run whose first
// extent may span several tracks.
func FuzzPreparedEstimate(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0), uint16(3), uint8(1), uint16(2), uint16(0), uint16(9), false, 0.0, uint8(0))
	f.Add(int64(2), uint16(7), uint8(2), uint16(7), uint8(2), uint16(0), uint16(63), uint16(1), true, 5999.5, uint8(4))
	f.Add(int64(3), uint16(1), uint8(0), uint16(40), uint8(4), uint16(63), uint16(200), uint16(77), false, 1e7, uint8(64))
	f.Add(int64(7), uint16(30), uint8(4), uint16(12), uint8(1), uint16(30), uint16(31), uint16(400), true, 123456., uint8(1))
	f.Fuzz(func(t *testing.T, geom int64, armCyl uint16, armHead uint8, cyl uint16, head uint8, sector, count, count2 uint16, write bool, at float64, slackK uint8) {
		if !(at >= 0 && at < 1e12) {
			t.Skip("start time outside any simulation")
		}
		d := fuzzDrive(geom)
		g := d.Geom
		st := disk.State{Cyl: int(armCyl) % g.Cylinders, Head: int(armHead) % g.Heads}
		run := []disk.Extent{
			fuzzExtent(g, cyl, head, sector, count),
			fuzzExtent(g, armCyl, head+1, sector/2, count2),
		}
		checkEstimators(t, d, st, run, write, des.Time(at), int(slackK))
	})
}
