package disk

import (
	"math/rand"
	"testing"

	"repro/internal/des"
)

// refService is the mechanical model written out the long way, one track at
// a time with every quantity derived from the request on the spot and the
// zone found by searching — the form Service had before targets were
// prepared. The prepared evaluation must reproduce it to the bit: the same
// float operations in the same order.
func refService(d *Disk, st State, req Request, start des.Time) (Timing, error) {
	g := d.Geom
	zoneOf := func(c int) *Zone {
		for i := range g.Zones {
			if z := &g.Zones[i]; z.StartCyl <= c && c <= z.EndCyl {
				return z
			}
		}
		panic("refService: cylinder outside every zone")
	}
	if req.Count <= 0 {
		return Timing{}, errRef("count")
	}
	if c := req.Start; c.Cyl < 0 || c.Cyl >= g.Cylinders || c.Head < 0 || c.Head >= g.Heads ||
		c.Sector < 0 || c.Sector >= zoneOf(c.Cyl).SPT {
		return Timing{}, errRef("location")
	}
	var tm Timing
	now := start
	cur := req.Start
	prev := st
	remaining := req.Count
	first := true
	for remaining > 0 {
		z := zoneOf(cur.Cyl)
		spt := z.SPT
		n := spt - cur.Sector
		if n > remaining {
			n = remaining
		}
		pos := d.positioningTo(prev, cur.Cyl, cur.Head, req.Write)
		if first {
			tm.Seek = pos
		} else {
			tm.Transfer += pos
		}
		now += pos
		skew := (cur.Cyl*z.CylSkew + (cur.Cyl*g.Heads+cur.Head)*z.TrackSkew) % spt
		target := float64((cur.Sector+skew)%spt) / float64(spt)
		rot := d.TimeToAngle(now, target)
		if first {
			tm.Rotate = rot
		} else {
			tm.Transfer += rot
		}
		now += rot
		xfer := des.Time(float64(n) / float64(spt) * float64(d.R))
		tm.Transfer += xfer
		now += xfer

		remaining -= n
		prev = State{Cyl: cur.Cyl, Head: cur.Head}
		if remaining > 0 {
			if cur.Head+1 < g.Heads {
				cur = Chs{Cyl: cur.Cyl, Head: cur.Head + 1}
			} else if cur.Cyl+1 < g.Cylinders {
				cur = Chs{Cyl: cur.Cyl + 1, Head: 0}
			} else {
				return Timing{}, errRef("end of disk")
			}
		} else {
			tm.End = prev
		}
		first = false
	}
	tm.Done = now
	return tm, nil
}

type errRef string

func (e errRef) Error() string { return "refService: bad " + string(e) }

// checkPrepared asserts that Prepare, Service and AccessPrepared all agree with refService on one request: same accept or
// reject decision, and on accept the same bits everywhere.
func checkPrepared(t *testing.T, d *Disk, st State, req Request, start des.Time) {
	t.Helper()
	want, refErr := refService(d, st, req, start)
	tg, prepErr := d.Prepare(req)
	got, svcErr := d.Service(st, req, start)
	if (refErr == nil) != (prepErr == nil) || (refErr == nil) != (svcErr == nil) {
		t.Fatalf("%+v: reference err %v, Prepare err %v, Service err %v", req, refErr, prepErr, svcErr)
	}
	if refErr != nil {
		if prepErr.Error() != svcErr.Error() {
			t.Fatalf("%+v: Prepare says %q, Service says %q", req, prepErr, svcErr)
		}
		return
	}
	if got != want {
		t.Fatalf("%+v from %+v at %v: Service = %+v, reference %+v", req, st, start, got, want)
	}
	total, end := d.AccessPrepared(st, &tg, req.Write, start)
	if total != want.Total() || end != want.End {
		t.Fatalf("%+v from %+v at %v: AccessPrepared = %v,%+v, reference %v,%+v",
			req, st, start, total, end, want.Total(), want.End)
	}
}

func TestPreparedMatchesReference(t *testing.T) {
	d := testDisk(t)
	g := d.Geom
	z0, z1 := g.Zones[0], g.Zones[1]
	lastCyl, lastHead := g.Cylinders-1, g.Heads-1
	lastSPT := g.SPTOf(lastCyl)
	cases := []struct {
		name string
		req  Request
		ok   bool
	}{
		{"one sector", Request{Start: Chs{100, 3, 17}, Count: 1}, true},
		{"mid-track run", Request{Start: Chs{100, 3, 17}, Count: 64}, true},
		{"ends exactly at track end", Request{Start: Chs{100, 3, z0.SPT - 8}, Count: 8}, true},
		{"whole track", Request{Start: Chs{100, 3, 0}, Count: z0.SPT}, true},
		{"one sector past track end (head switch)", Request{Start: Chs{100, 3, z0.SPT - 8}, Count: 9}, true},
		{"across a cylinder switch", Request{Start: Chs{100, lastHead, z0.SPT - 8}, Count: 40}, true},
		{"three tracks", Request{Start: Chs{100, 2, 5}, Count: 2*z0.SPT + 50}, true},
		{"across a zone boundary", Request{Start: Chs{z0.EndCyl, lastHead, z0.SPT - 3}, Count: z1.SPT + 10}, true},
		{"write across a zone boundary", Request{Start: Chs{z0.EndCyl, lastHead, 0}, Count: z0.SPT + z1.SPT, Write: true}, true},
		{"last track of the disk", Request{Start: Chs{lastCyl, lastHead, 0}, Count: lastSPT}, true},
		{"last sector of the disk", Request{Start: Chs{lastCyl, lastHead, lastSPT - 1}, Count: 1, Write: true}, true},
		{"into the last track", Request{Start: Chs{lastCyl, lastHead - 1, lastSPT - 1}, Count: 1 + lastSPT}, true},
		{"zero count", Request{Start: Chs{100, 3, 17}, Count: 0}, false},
		{"negative count", Request{Start: Chs{100, 3, 17}, Count: -4}, false},
		{"sector == SPT", Request{Start: Chs{100, 3, z0.SPT}, Count: 1}, false},
		{"negative sector", Request{Start: Chs{100, 3, -1}, Count: 1}, false},
		{"cylinder == Cylinders", Request{Start: Chs{g.Cylinders, 0, 0}, Count: 1}, false},
		{"negative cylinder", Request{Start: Chs{-1, 0, 0}, Count: 1}, false},
		{"head == Heads", Request{Start: Chs{100, g.Heads, 0}, Count: 1}, false},
		{"negative head", Request{Start: Chs{100, -1, 0}, Count: 1}, false},
		{"one sector off the end of the disk", Request{Start: Chs{lastCyl, lastHead, 0}, Count: lastSPT + 1}, false},
		{"far off the end of the disk", Request{Start: Chs{lastCyl, 0, 0}, Count: g.Heads*lastSPT + 1}, false},
	}
	states := []State{{}, {Cyl: 100, Head: 3}, {Cyl: 100, Head: 4}, {Cyl: lastCyl, Head: lastHead}}
	for _, tc := range cases {
		if _, err := d.Prepare(tc.req); (err == nil) != tc.ok {
			t.Errorf("%s: Prepare err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		for _, st := range states {
			for _, at := range []des.Time{0, 1234.5, 7e6 + 0.25} {
				checkPrepared(t, d, st, tc.req, at)
			}
		}
	}
}

// fuzzDisk builds a drive with a seeded random zoned geometry and skews,
// small enough that a fuzzed request often lands on a boundary.
func fuzzDisk(seed int64) *Disk {
	rng := rand.New(rand.NewSource(seed))
	zones := make([]int, 1+rng.Intn(4))
	for i := range zones {
		zones[i] = 4 + rng.Intn(60)
	}
	cyls := len(zones) + rng.Intn(40)
	g, err := NewGeometry(cyls, 1+rng.Intn(5), rng.Intn(2)*(cyls-1)/4, zones, nil)
	if err != nil {
		panic(err)
	}
	for i := range g.Zones {
		z := &g.Zones[i]
		z.TrackSkew, z.CylSkew = rng.Intn(z.SPT), rng.Intn(z.SPT)
	}
	base := fuzzBase
	return &Disk{
		Geom: g, Seek: base.Seek, HeadSwitch: base.HeadSwitch,
		R: base.R * des.Time(0.9997+0.0006*rng.Float64()), NominalR: base.R,
		Phase: rng.Float64(),
	}
}

// fuzzBase lends the fuzzed drives its seek curve and timing.
var fuzzBase = ST39133LWV().MustNew()

// FuzzPreparedAccess checks the prepared evaluation against the reference
// model over random zoned geometries, arm states, start times, reads and
// writes. Coordinates are reduced modulo a little more than the geometry's
// range, so most requests are valid and the rest probe each rejection.
func FuzzPreparedAccess(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0), uint16(3), uint8(1), uint16(2), int32(1), false, 0.0)
	f.Add(int64(2), uint16(7), uint8(2), uint16(7), uint8(2), uint16(0), int32(64), true, 5999.5)     // whole tracks
	f.Add(int64(3), uint16(1), uint8(0), uint16(40), uint8(4), uint16(63), int32(200), false, 1e7)    // near the end
	f.Add(int64(4), uint16(9), uint8(1), uint16(9), uint8(0), uint16(5), int32(0), false, 17.25)      // zero count
	f.Add(int64(5), uint16(2), uint8(3), uint16(11), uint8(3), uint16(9), int32(-3), true, 1.0)       // negative count
	f.Add(int64(6), uint16(0), uint8(0), uint16(0), uint8(0), uint16(0), int32(1<<30), false, 2.5)    // off the end
	f.Add(int64(7), uint16(30), uint8(4), uint16(12), uint8(1), uint16(30), int32(31), true, 123456.) // zone crossing
	f.Fuzz(func(t *testing.T, geom int64, armCyl uint16, armHead uint8, cyl uint16, head uint8, sector uint16, count int32, write bool, at float64) {
		if !(at >= 0 && at < 1e12) {
			t.Skip("start time outside any simulation")
		}
		d := fuzzDisk(geom)
		g := d.Geom
		st := State{Cyl: int(armCyl) % g.Cylinders, Head: int(armHead) % g.Heads}
		c := int(cyl) % (g.Cylinders + 1)
		spt := 64
		if c < g.Cylinders {
			spt = g.SPTOf(c)
		}
		req := Request{
			Start: Chs{Cyl: c, Head: int(head) % (g.Heads + 1), Sector: int(sector) % (spt + 1)},
			Count: int(count), Write: write,
		}
		checkPrepared(t, d, st, req, des.Time(at))
	})
}
