package disk

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testDisk(t testing.TB) *Disk {
	t.Helper()
	d, err := ST39133LWV().New()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCapacityMatchesDatasheet(t *testing.T) {
	d := testDisk(t)
	got := d.Geom.Capacity()
	// The drive is marketed as 9.1 GB (decimal); the simulated geometry
	// should land within a few percent.
	lo, hi := int64(8.7e9), int64(9.5e9)
	if got < lo || got > hi {
		t.Fatalf("capacity = %d bytes, want within [%d,%d]", got, lo, hi)
	}
}

func TestZonesCoverAllCylinders(t *testing.T) {
	d := testDisk(t)
	g := d.Geom
	next := 0
	for i, z := range g.Zones {
		if z.StartCyl != next {
			t.Fatalf("zone %d starts at %d, want %d", i, z.StartCyl, next)
		}
		if z.EndCyl < z.StartCyl {
			t.Fatalf("zone %d empty", i)
		}
		next = z.EndCyl + 1
	}
	if next != g.Cylinders {
		t.Fatalf("zones end at %d, want %d", next, g.Cylinders)
	}
}

func TestZoneSPTDecreasesInward(t *testing.T) {
	d := testDisk(t)
	for i := 1; i < len(d.Geom.Zones); i++ {
		if d.Geom.Zones[i].SPT >= d.Geom.Zones[i-1].SPT {
			t.Fatalf("zone %d SPT %d not less than outer zone's %d",
				i, d.Geom.Zones[i].SPT, d.Geom.Zones[i-1].SPT)
		}
	}
}

func TestLBARoundTrip(t *testing.T) {
	d := testDisk(t)
	g := d.Geom
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lba := rng.Int63n(g.TotalSectors())
		p, err := g.LBAToPhys(lba)
		if err != nil {
			return false
		}
		back, err := g.PhysToLBA(p)
		return err == nil && back == lba
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLBAOutOfRange(t *testing.T) {
	d := testDisk(t)
	if _, err := d.Geom.LBAToPhys(-1); err == nil {
		t.Error("LBAToPhys(-1) succeeded")
	}
	if _, err := d.Geom.LBAToPhys(d.Geom.TotalSectors()); err == nil {
		t.Error("LBAToPhys(total) succeeded")
	}
}

func TestReservedAreaHasNoLBA(t *testing.T) {
	d := testDisk(t)
	g := d.Geom
	p := Chs{Cyl: g.Cylinders - 1, Head: 0, Sector: 0}
	if _, err := g.PhysToLBA(p); err == nil {
		t.Error("reserved sector mapped to an LBA")
	}
	// The last LBA should land on the last non-reserved cylinder.
	last, err := g.LBAToPhys(g.TotalSectors() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := g.Cylinders - g.ReservedCyls - 1; last.Cyl != want {
		t.Errorf("last LBA at cylinder %d, want %d", last.Cyl, want)
	}
}

func TestDefectSlipping(t *testing.T) {
	sp := ST39133LWV()
	clean := sp.MustNew()
	// Mark three physical sectors defective, including two adjacent ones.
	p, err := clean.Geom.LBAToPhys(1000)
	if err != nil {
		t.Fatal(err)
	}
	base := clean.Geom.physIndex(p)
	sp.Defects = []int64{base, base + 1, base + 500}
	d := sp.MustNew()

	if got, want := d.Geom.TotalSectors(), clean.Geom.TotalSectors()-3; got != want {
		t.Fatalf("slipped capacity = %d, want %d", got, want)
	}
	// Every LBA still round-trips and never lands on a defect.
	for _, lba := range []int64{0, 998, 999, 1000, 1001, 1499, 1500, d.Geom.TotalSectors() - 1} {
		p, err := d.Geom.LBAToPhys(lba)
		if err != nil {
			t.Fatalf("LBAToPhys(%d): %v", lba, err)
		}
		if d.Geom.isDefect(d.Geom.physIndex(p)) {
			t.Fatalf("LBA %d mapped onto a defect at %v", lba, p)
		}
		back, err := d.Geom.PhysToLBA(p)
		if err != nil || back != lba {
			t.Fatalf("round trip of %d failed: %d, %v", lba, back, err)
		}
	}
	// LBAs at/after the first defect shift by the number of preceding
	// defects.
	pShift, err := d.Geom.LBAToPhys(1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Geom.physIndex(pShift); got != base+2 {
		t.Fatalf("LBA 1000 at phys %d, want %d (slipped past two defects)", got, base+2)
	}
	// Defective sectors themselves have no LBA.
	if _, err := d.Geom.PhysToLBA(d.Geom.physLocation(base)); err == nil {
		t.Error("defective sector mapped to an LBA")
	}
}

func TestDefectValidation(t *testing.T) {
	sp := ST39133LWV()
	sp.Defects = []int64{5, 5}
	if _, err := sp.New(); err == nil {
		t.Error("duplicate defects accepted")
	}
	sp.Defects = []int64{-1}
	if _, err := sp.New(); err == nil {
		t.Error("negative defect accepted")
	}
}

func TestSectorAngleInverse(t *testing.T) {
	d := testDisk(t)
	g := d.Geom
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := rng.Intn(g.Cylinders)
		h := rng.Intn(g.Heads)
		s := rng.Intn(g.SPTOf(c))
		angle := g.SectorAngle(Chs{c, h, s})
		if angle < 0 || angle >= 1 {
			return false
		}
		return g.SectorAtAngle(c, h, angle) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSectorAtAngleRoundsForward(t *testing.T) {
	d := testDisk(t)
	g := d.Geom
	c, h := 100, 3
	spt := g.SPTOf(c)
	s := 17
	angle := g.SectorAngle(Chs{c, h, s})
	// Slightly after the sector start: must pick the *next* sector.
	eps := 0.25 / float64(spt)
	next := g.SectorAtAngle(c, h, angle+eps)
	if want := (s + 1) % spt; next != want {
		t.Fatalf("SectorAtAngle just past %d = %d, want %d", s, next, want)
	}
}

func TestSkewAlignsSequentialTracks(t *testing.T) {
	d := testDisk(t)
	g := d.Geom
	// Logical sector 0 of (c, h+1) should sit TrackSkew sectors after
	// logical sector 0 of (c, h) in angle.
	c := 42
	z := g.ZoneOf(c)
	for h := 0; h+1 < g.Heads; h++ {
		a0 := g.SectorAngle(Chs{c, h, 0})
		a1 := g.SectorAngle(Chs{c, h + 1, 0})
		diff := a1 - a0
		for diff < 0 {
			diff++
		}
		want := float64(z.TrackSkew) / float64(z.SPT)
		if diffAbs(diff, want) > 1e-9 {
			t.Fatalf("track skew angle between h%d/h%d = %v, want %v", h, h+1, diff, want)
		}
	}
}

func diffAbs(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d
}

func TestZoneIndexOf(t *testing.T) {
	d := testDisk(t)
	g := d.Geom
	for i, z := range g.Zones {
		if got := g.ZoneOf(z.StartCyl); got != &g.Zones[i] {
			t.Errorf("ZoneOf(%d) = zone %+v, want zone %d", z.StartCyl, *got, i)
		}
		if got := g.ZoneOf(z.EndCyl); got != &g.Zones[i] {
			t.Errorf("ZoneOf(%d) = zone %+v, want zone %d", z.EndCyl, *got, i)
		}
	}
}

func TestNewGeometryRejectsBadInput(t *testing.T) {
	cases := []struct {
		name                 string
		cyl, heads, reserved int
		zones                []int
	}{
		{"no cylinders", 0, 4, 0, []int{100}},
		{"no heads", 100, 0, 0, []int{100}},
		{"reserved too big", 10, 4, 10, []int{100}},
		{"no zones", 100, 4, 0, nil},
		{"zero SPT", 100, 4, 0, []int{0}},
		{"more zones than cylinders", 2, 4, 0, []int{10, 10, 10}},
	}
	for _, c := range cases {
		if _, err := NewGeometry(c.cyl, c.heads, c.reserved, c.zones, nil); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
