package disk

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/des"
)

func TestSeekCurveHitsDatasheetPoints(t *testing.T) {
	sp := ST39133LWV()
	d := sp.MustNew()
	maxDist := sp.Cylinders - 1
	if got := d.Seek.Time(1, false); math.Abs(float64(got-sp.MinSeek)) > 1 {
		t.Errorf("min seek = %v, want %v", got, sp.MinSeek)
	}
	if got := d.Seek.Time(maxDist, false); math.Abs(float64(got-sp.MaxSeek)) > 1 {
		t.Errorf("max seek = %v, want %v", got, sp.MaxSeek)
	}
	// Monte-Carlo average over random cylinder pairs should land on the
	// datasheet average.
	rng := rand.New(rand.NewSource(7))
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		a, b := rng.Intn(sp.Cylinders), rng.Intn(sp.Cylinders)
		sum += float64(d.Seek.Time(a-b, false))
	}
	avg := sum / n
	if math.Abs(avg-float64(sp.AvgSeek)) > 0.02*float64(sp.AvgSeek) {
		t.Errorf("Monte-Carlo average seek = %.0fus, want ~%v", avg, sp.AvgSeek)
	}
}

func TestSeekCurveMonotone(t *testing.T) {
	d := testDisk(t)
	f := func(a, b uint16) bool {
		da, db := int(a)%6961, int(b)%6961
		if da > db {
			da, db = db, da
		}
		return d.Seek.Time(da, false) <= d.Seek.Time(db, false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSeekZeroDistanceFree(t *testing.T) {
	d := testDisk(t)
	if got := d.Seek.Time(0, false); got != 0 {
		t.Errorf("zero-distance read seek = %v, want 0", got)
	}
	if got := d.Seek.Time(0, true); got != 0 {
		t.Errorf("zero-distance write seek = %v, want 0", got)
	}
}

func TestWriteSeekSlower(t *testing.T) {
	d := testDisk(t)
	for _, dist := range []int{1, 100, 3000, 6900} {
		r, w := d.Seek.Time(dist, false), d.Seek.Time(dist, true)
		if diffAbs(float64(w-r), float64(d.Seek.WriteSettle)) > 1e-6 {
			t.Errorf("dist %d: write-read = %v, want settle %v", dist, w-r, d.Seek.WriteSettle)
		}
	}
}

func TestSolveSeekCurveRejectsBadInput(t *testing.T) {
	if _, err := SolveSeekCurve(5000, 4000, 10000, 1000, 0); err == nil {
		t.Error("min>avg accepted")
	}
	if _, err := SolveSeekCurve(800, 5200, 10500, 2, 0); err == nil {
		t.Error("tiny maxDist accepted")
	}
}

func TestRotationPureFunctionOfTime(t *testing.T) {
	d := testDisk(t)
	a0 := d.AngleAt(0)
	if math.Abs(a0-d.Phase) > 1e-12 {
		t.Fatalf("angle at 0 = %v, want phase %v", a0, d.Phase)
	}
	// One full period returns to the same angle.
	a1 := d.AngleAt(d.R)
	if diffAbs(a0, a1) > 1e-9 {
		t.Fatalf("angle after one period = %v, want %v", a1, a0)
	}
	// Half a period is half a revolution away.
	ah := d.AngleAt(d.R / 2)
	want := math.Mod(a0+0.5, 1)
	if diffAbs(ah, want) > 1e-9 {
		t.Fatalf("angle after half period = %v, want %v", ah, want)
	}
}

func TestTimeToAngleBounds(t *testing.T) {
	d := testDisk(t)
	f := func(tRaw, aRaw uint32) bool {
		now := des.Time(float64(tRaw) / 10)
		target := float64(aRaw) / float64(math.MaxUint32)
		w := d.TimeToAngle(now, target)
		if w < 0 || w >= d.R+des.Time(1e-6) {
			return false
		}
		// After waiting, we are at the target angle.
		return diffAbs(d.AngleAt(now+w), math.Mod(target, 1)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestServiceSingleSectorBounds(t *testing.T) {
	d := testDisk(t)
	st := State{Cyl: 0, Head: 0}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		c := rng.Intn(d.Geom.Cylinders)
		h := rng.Intn(d.Geom.Heads)
		s := rng.Intn(d.Geom.SPTOf(c))
		tm, err := d.Service(st, Request{Start: Chs{c, h, s}, Count: 1}, des.Time(rng.Float64()*1e6))
		if err != nil {
			t.Fatal(err)
		}
		if tm.Seek < 0 || tm.Rotate < 0 || tm.Rotate >= d.R {
			t.Fatalf("bad timing %+v", tm)
		}
		maxSeek := d.Seek.Time(d.Geom.Cylinders-1, false) + d.HeadSwitch
		if tm.Total() > maxSeek+d.R+d.R {
			t.Fatalf("service took %v, impossibly long", tm.Total())
		}
		if tm.End.Cyl != c || tm.End.Head != h {
			t.Fatalf("end state %+v, want cyl %d head %d", tm.End, c, h)
		}
		st = tm.End
	}
}

func TestServiceFullTrackTakesOneRotationPlusPositioning(t *testing.T) {
	d := testDisk(t)
	c := 10
	spt := d.Geom.SPTOf(c)
	st := State{Cyl: c, Head: 0}
	tm, err := d.Service(st, Request{Start: Chs{c, 0, 0}, Count: spt}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if diffAbs(float64(tm.Transfer), float64(d.R)) > 1 {
		t.Fatalf("full-track transfer = %v, want %v", tm.Transfer, d.R)
	}
	if tm.Seek != 0 {
		t.Fatalf("same-cylinder same-head seek = %v, want 0", tm.Seek)
	}
}

// Sequential I/O crossing a track boundary must not lose a full rotation:
// the skew is sized so the switch costs roughly the skew angle.
func TestSkewPreservesSequentialBandwidth(t *testing.T) {
	d := testDisk(t)
	c := 20
	z := d.Geom.ZoneOf(c)
	spt := z.SPT
	st := State{Cyl: c, Head: 0}
	// Read two full tracks starting at (c, 0, 0).
	tm, err := d.Service(st, Request{Start: Chs{c, 0, 0}, Count: 2 * spt}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Ideal: 2 rotations of data + one track switch worth of skew. Anything
	// beyond ~2.35 rotations means we missed a revolution at the boundary.
	limit := 2.35 * float64(d.R)
	if float64(tm.Transfer) > limit {
		t.Fatalf("two-track sequential transfer = %v, exceeds %v (lost a rotation at the switch)", tm.Transfer, des.Time(limit))
	}
}

func TestServiceCylinderCrossing(t *testing.T) {
	d := testDisk(t)
	c := 30
	spt := d.Geom.SPTOf(c)
	total := spt * d.Geom.Heads // a full cylinder
	st := State{Cyl: c, Head: 0}
	tm, err := d.Service(st, Request{Start: Chs{c, 0, 0}, Count: total + spt}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tm.End.Cyl != c+1 || tm.End.Head != 0 {
		t.Fatalf("end state %+v, want cylinder %d head 0", tm.End, c+1)
	}
	// heads+1 tracks: about heads+1 rotations plus switches.
	rots := float64(tm.Transfer) / float64(d.R)
	maxRots := float64(d.Geom.Heads+1) * 1.25
	if rots > maxRots {
		t.Fatalf("cylinder-crossing transfer took %.2f rotations, want < %.2f", rots, maxRots)
	}
}

func TestServiceErrors(t *testing.T) {
	d := testDisk(t)
	if _, err := d.Service(State{}, Request{Start: Chs{0, 0, 0}, Count: 0}, 0); err == nil {
		t.Error("zero-count request accepted")
	}
	if _, err := d.Service(State{}, Request{Start: Chs{-1, 0, 0}, Count: 1}, 0); err == nil {
		t.Error("negative cylinder accepted")
	}
	// Run off the end of the disk.
	g := d.Geom
	lastCyl := g.Cylinders - 1
	spt := g.SPTOf(lastCyl)
	req := Request{Start: Chs{lastCyl, g.Heads - 1, spt - 1}, Count: 2}
	if _, err := d.Service(State{Cyl: lastCyl}, req, 0); err == nil {
		t.Error("transfer past end of disk accepted")
	}
}

func TestServiceLBAMatchesPhysicalWhenContiguous(t *testing.T) {
	d := testDisk(t)
	lba := int64(123456)
	p, err := d.Geom.LBAToPhys(lba)
	if err != nil {
		t.Fatal(err)
	}
	st := State{Cyl: 500, Head: 2}
	a, err := d.ServiceLBA(st, lba, 16, false, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Service(st, Request{Start: p, Count: 16}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total() != b.Total() || a.Done != b.Done {
		t.Fatalf("LBA path %+v != phys path %+v", a, b)
	}
}

func TestServiceLBASplitsAtDefects(t *testing.T) {
	sp := ST39133LWV()
	clean := sp.MustNew()
	p, err := clean.Geom.LBAToPhys(5000)
	if err != nil {
		t.Fatal(err)
	}
	base := clean.Geom.physIndex(p)
	sp.Defects = []int64{base + 4}
	d := sp.MustNew()
	// A 8-sector read spanning the defect must still complete and cost at
	// least as much as a contiguous one.
	tm, err := d.ServiceLBA(State{}, 4998, 8, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := clean.ServiceLBA(State{}, 4998, 8, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Total() < ref.Total() {
		t.Fatalf("defect-split transfer %v cheaper than contiguous %v", tm.Total(), ref.Total())
	}
}

// Statistical check backing the paper's base case: average rotational delay
// for random single-sector reads is R/2.
func TestAverageRotationalDelayIsHalfR(t *testing.T) {
	d := testDisk(t)
	rng := rand.New(rand.NewSource(11))
	var sum float64
	const n = 20000
	c := 300
	spt := d.Geom.SPTOf(c)
	for i := 0; i < n; i++ {
		s := rng.Intn(spt)
		tm, err := d.Service(State{Cyl: c}, Request{Start: Chs{c, 0, s}, Count: 1}, des.Time(rng.Float64()*1e7))
		if err != nil {
			t.Fatal(err)
		}
		sum += float64(tm.Rotate)
	}
	avg := sum / n
	want := float64(d.R) / 2
	if math.Abs(avg-want) > 0.03*want {
		t.Fatalf("average rotational delay = %.0fus, want ~%.0fus (R/2)", avg, want)
	}
}

func TestSpecValidation(t *testing.T) {
	sp := ST39133LWV()
	sp.RPM = 0
	if _, err := sp.New(); err == nil {
		t.Error("zero RPM accepted")
	}
}

func TestRSkewAppliesToTrueRotation(t *testing.T) {
	sp := ST39133LWV()
	sp.RSkew = 5e-4
	d := sp.MustNew()
	if d.R == d.NominalR {
		t.Fatal("RSkew did not offset the true rotation period")
	}
	want := float64(d.NominalR) * 1.0005
	if math.Abs(float64(d.R)-want) > 1e-9*want {
		t.Fatalf("R = %v, want %v", d.R, want)
	}
}

func TestServiceLBAAcrossZoneBoundary(t *testing.T) {
	d := testDisk(t)
	g := d.Geom
	// Find the first LBA of zone 1 and start a transfer shortly before it.
	z1 := g.Zones[1]
	startOfZone1, err := g.PhysToLBA(Chs{Cyl: z1.StartCyl, Head: 0, Sector: 0})
	if err != nil {
		t.Fatal(err)
	}
	lba := startOfZone1 - 64
	tm, err := d.ServiceLBA(State{Cyl: z1.StartCyl - 2}, lba, 128, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tm.End.Cyl != z1.StartCyl {
		t.Fatalf("transfer across zone boundary ended at cylinder %d, want %d", tm.End.Cyl, z1.StartCyl)
	}
	if tm.Total() <= 0 || tm.Total() > 10*d.R {
		t.Fatalf("implausible zone-crossing service time %v", tm.Total())
	}
}

func TestAngularWidthGrowsInward(t *testing.T) {
	d := testDisk(t)
	g := d.Geom
	prev := 0.0
	for _, z := range g.Zones {
		w := g.AngularWidth(z.StartCyl)
		if w <= prev {
			t.Fatalf("angular width %v at cylinder %d not greater than outer zone's %v (fewer sectors inward -> wider sectors)", w, z.StartCyl, prev)
		}
		prev = w
	}
}

// Physical ordering is monotone in LBA on a defect-free drive.
func TestLBAOrderingMonotone(t *testing.T) {
	d := testDisk(t)
	g := d.Geom
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := rng.Int63n(g.TotalSectors() - 1)
		b := a + 1 + rng.Int63n(g.TotalSectors()-a-1)
		pa, err1 := g.LBAToPhys(a)
		pb, err2 := g.LBAToPhys(b)
		if err1 != nil || err2 != nil {
			return false
		}
		return g.physIndex(pa) < g.physIndex(pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeToAngleWithOffNominalSpindle(t *testing.T) {
	sp := ST39133LWV()
	sp.RSkew = 3e-4
	sp.Phase = 0.25
	d := sp.MustNew()
	// A full predicted period must use the true (skewed) R, not nominal.
	w := d.TimeToAngle(0, 0.25)
	if w != 0 {
		t.Fatalf("wait to current angle = %v, want 0", w)
	}
	w = d.TimeToAngle(1, 0.25) // just past: almost a full true rotation
	if math.Abs(float64(w-(d.R-1))) > 1e-6 {
		t.Fatalf("wrap wait = %v, want %v", w, d.R-1)
	}
}
