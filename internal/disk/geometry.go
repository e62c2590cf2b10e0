// Package disk implements a mechanically detailed model of a late-1990s
// SCSI disk drive: zoned recording, track and cylinder skew, a three-term
// seek curve, settle time for writes, head switches, defect slipping, and
// rotation modeled as a pure function of absolute simulated time.
//
// The model stands in for the Seagate ST39133LWV drives used by the
// MimdRAID prototype (OSDI 2000, Table 1). Everything the paper's results
// depend on — the relationship between seek distance and seek time, the
// relationship between rotational distance and delay, zone geometry, and
// skew — is represented; magnetics and caching are not (the prototype
// bypassed the drive cache for scheduling fidelity).
package disk

import (
	"fmt"
	"math"
	"sort"
)

// SectorSize is the fixed sector size in bytes.
const SectorSize = 512

// Zone describes a band of cylinders recorded at a single density.
type Zone struct {
	StartCyl int // first cylinder of the zone (inclusive)
	EndCyl   int // last cylinder of the zone (inclusive)
	SPT      int // sectors per track within the zone

	// TrackSkew and CylSkew are the per-track-switch and per-cylinder-switch
	// offsets, in sectors, applied to where logical sector 0 of a track
	// sits. They are derived from head-switch and single-cylinder-seek
	// times so that sequential transfers crossing a boundary just catch
	// the next logical sector.
	TrackSkew int
	CylSkew   int

	startSector int64 // physical index of the zone's first sector
}

// Chs identifies a physical sector by cylinder, head, and sector-on-track.
type Chs struct {
	Cyl, Head, Sector int
}

func (c Chs) String() string { return fmt.Sprintf("(c%d h%d s%d)", c.Cyl, c.Head, c.Sector) }

// Extent is a physically contiguous run of sectors starting at a location.
type Extent struct {
	Start Chs
	Count int
}

// Geometry is the static physical layout of a drive.
type Geometry struct {
	Cylinders    int    // total cylinders, including reserved ones
	Heads        int    // surfaces (tracks per cylinder)
	ReservedCyls int    // trailing cylinders excluded from the logical space
	Zones        []Zone // ascending, contiguous, covering [0, Cylinders)

	// cylZone maps every cylinder to the index of its zone: the mechanical
	// model asks for a cylinder's zone on every access-time estimate, far
	// too often for a search.
	cylZone []uint16

	defects       []int64 // sorted physical sector indexes that are unusable
	totalPhys     int64   // physical sectors, including reserved cylinders
	logicalPhys   int64   // physical sectors in the addressable cylinders
	logicalSizeLB int64   // logical sectors = logicalPhys - defects in range
}

// NewGeometry validates and indexes a geometry. zoneSPT gives the
// sectors-per-track for each zone; zones get equal cylinder ranges (the
// last zone absorbs the remainder). Skews are filled in later by the Spec
// that knows the drive's timing.
func NewGeometry(cylinders, heads, reservedCyls int, zoneSPT []int, defects []int64) (*Geometry, error) {
	if cylinders <= 0 || heads <= 0 {
		return nil, fmt.Errorf("disk: invalid geometry %d cylinders x %d heads", cylinders, heads)
	}
	if reservedCyls < 0 || reservedCyls >= cylinders {
		return nil, fmt.Errorf("disk: invalid reserved cylinder count %d", reservedCyls)
	}
	if len(zoneSPT) == 0 {
		return nil, fmt.Errorf("disk: at least one zone required")
	}
	g := &Geometry{
		Cylinders:    cylinders,
		Heads:        heads,
		ReservedCyls: reservedCyls,
	}
	per := cylinders / len(zoneSPT)
	if per == 0 {
		return nil, fmt.Errorf("disk: more zones (%d) than cylinders (%d)", len(zoneSPT), cylinders)
	}
	if len(zoneSPT) > math.MaxUint16+1 {
		return nil, fmt.Errorf("disk: %d zones exceed the supported %d", len(zoneSPT), math.MaxUint16+1)
	}
	g.cylZone = make([]uint16, cylinders)
	start := 0
	var phys int64
	for i, spt := range zoneSPT {
		if spt <= 0 {
			return nil, fmt.Errorf("disk: zone %d has non-positive SPT %d", i, spt)
		}
		end := start + per - 1
		if i == len(zoneSPT)-1 {
			end = cylinders - 1
		}
		z := Zone{StartCyl: start, EndCyl: end, SPT: spt, startSector: phys}
		g.Zones = append(g.Zones, z)
		for c := start; c <= end; c++ {
			g.cylZone[c] = uint16(i)
		}
		phys += int64(end-start+1) * int64(heads) * int64(spt)
		start = end + 1
	}
	g.totalPhys = phys

	lastLogicalCyl := cylinders - reservedCyls - 1
	g.logicalPhys = g.physIndex(Chs{Cyl: lastLogicalCyl, Head: heads - 1, Sector: g.SPTOf(lastLogicalCyl) - 1}) + 1

	g.defects = append([]int64(nil), defects...)
	sort.Slice(g.defects, func(i, j int) bool { return g.defects[i] < g.defects[j] })
	for i := 1; i < len(g.defects); i++ {
		if g.defects[i] == g.defects[i-1] {
			return nil, fmt.Errorf("disk: duplicate defect at physical sector %d", g.defects[i])
		}
	}
	var inRange int64
	for _, d := range g.defects {
		if d < 0 || d >= g.totalPhys {
			return nil, fmt.Errorf("disk: defect %d outside physical space [0,%d)", d, g.totalPhys)
		}
		if d < g.logicalPhys {
			inRange++
		}
	}
	g.logicalSizeLB = g.logicalPhys - inRange
	return g, nil
}

// ZoneOf returns the zone containing cylinder c, which must lie in
// [0, Cylinders).
func (g *Geometry) ZoneOf(c int) *Zone { return &g.Zones[g.cylZone[c]] }

// SPTOf returns sectors-per-track at cylinder c.
func (g *Geometry) SPTOf(c int) int { return g.ZoneOf(c).SPT }

// TotalSectors reports the number of logical (addressable) sectors.
func (g *Geometry) TotalSectors() int64 { return g.logicalSizeLB }

// Capacity reports the logical capacity in bytes.
func (g *Geometry) Capacity() int64 { return g.logicalSizeLB * SectorSize }

// LogicalCylinders reports the number of addressable cylinders.
func (g *Geometry) LogicalCylinders() int { return g.Cylinders - g.ReservedCyls }

// physIndex converts a physical location to a global physical sector index
// (cylinder-major, then head, then sector).
func (g *Geometry) physIndex(p Chs) int64 {
	return g.physIndexIn(g.ZoneOf(p.Cyl), p)
}

// physIndexIn is physIndex with p's zone already in hand.
func (g *Geometry) physIndexIn(z *Zone, p Chs) int64 {
	return z.startSector +
		int64(p.Cyl-z.StartCyl)*int64(g.Heads)*int64(z.SPT) +
		int64(p.Head)*int64(z.SPT) +
		int64(p.Sector)
}

// physLocation is the inverse of physIndex.
func (g *Geometry) physLocation(idx int64) Chs {
	i := sort.Search(len(g.Zones), func(i int) bool {
		return g.Zones[i].startSector > idx
	}) - 1
	z := &g.Zones[i]
	rel := idx - z.startSector
	perCyl := int64(g.Heads) * int64(z.SPT)
	c := z.StartCyl + int(rel/perCyl)
	rel %= perCyl
	h := int(rel / int64(z.SPT))
	s := int(rel % int64(z.SPT))
	return Chs{Cyl: c, Head: h, Sector: s}
}

// defectsBefore counts defects with physical index < idx.
func (g *Geometry) defectsBefore(idx int64) int64 {
	return int64(sort.Search(len(g.defects), func(i int) bool { return g.defects[i] >= idx }))
}

// isDefect reports whether physical index idx is defective.
func (g *Geometry) isDefect(idx int64) bool {
	i := sort.Search(len(g.defects), func(i int) bool { return g.defects[i] >= idx })
	return i < len(g.defects) && g.defects[i] == idx
}

// LBAToPhys maps a logical block address to its physical location, skipping
// slipped defects.
func (g *Geometry) LBAToPhys(lba int64) (Chs, error) {
	if lba < 0 || lba >= g.logicalSizeLB {
		return Chs{}, fmt.Errorf("disk: LBA %d out of range [0,%d)", lba, g.logicalSizeLB)
	}
	// With defect slipping, phys = lba + defectsBefore(phys+1). Iterate to a
	// fixed point; each round can only move phys forward, and it converges
	// in at most len(defects) rounds (typically 1–2).
	phys := lba
	for {
		next := lba + g.defectsBefore(phys+1)
		if next == phys {
			break
		}
		phys = next
	}
	for g.isDefect(phys) {
		phys++
	}
	return g.physLocation(phys), nil
}

// PhysToLBA maps a physical location back to its logical block address. It
// fails for defective or reserved sectors, which have no LBA.
func (g *Geometry) PhysToLBA(p Chs) (int64, error) {
	z, err := g.validate(p)
	if err != nil {
		return 0, err
	}
	idx := g.physIndexIn(z, p)
	if idx >= g.logicalPhys {
		return 0, fmt.Errorf("disk: %v is in the reserved area", p)
	}
	if g.isDefect(idx) {
		return 0, fmt.Errorf("disk: %v is a defective sector", p)
	}
	return idx - g.defectsBefore(idx), nil
}

// validate checks that p names a physical sector and returns its zone.
func (g *Geometry) validate(p Chs) (*Zone, error) {
	if p.Cyl < 0 || p.Cyl >= g.Cylinders {
		return nil, fmt.Errorf("disk: cylinder %d out of range [0,%d)", p.Cyl, g.Cylinders)
	}
	if p.Head < 0 || p.Head >= g.Heads {
		return nil, fmt.Errorf("disk: head %d out of range [0,%d)", p.Head, g.Heads)
	}
	z := g.ZoneOf(p.Cyl)
	if p.Sector < 0 || p.Sector >= z.SPT {
		return nil, fmt.Errorf("disk: sector %d out of range [0,%d) at cylinder %d", p.Sector, z.SPT, p.Cyl)
	}
	return z, nil
}

// skewOffset returns the rotational offset, in sectors, of logical sector 0
// of track (c,h) in zone z. Track skew accumulates per surface within a
// cylinder and cylinder skew accumulates per cylinder, so that sequential
// transfers that cross a track or cylinder boundary arrive just in time for
// the next logical sector.
func (g *Geometry) skewOffset(z *Zone, c, h int) int {
	off := c*z.CylSkew + (c*g.Heads+h)*z.TrackSkew
	return off % z.SPT
}

// SectorAngle returns the angular position, in [0,1) fractions of a
// revolution, of the *start* of logical sector s on track (c,h).
func (g *Geometry) SectorAngle(p Chs) float64 {
	return g.sectorAngleIn(g.ZoneOf(p.Cyl), p)
}

// sectorAngleIn is SectorAngle with p's zone already in hand.
func (g *Geometry) sectorAngleIn(z *Zone, p Chs) float64 {
	pos := (p.Sector + g.skewOffset(z, p.Cyl, p.Head)) % z.SPT
	return float64(pos) / float64(z.SPT)
}

// SectorAtAngle returns the logical sector number on track (c,h) whose
// start angle is the first at or after the given angle (in [0,1)).
func (g *Geometry) SectorAtAngle(c, h int, angle float64) int {
	z := g.ZoneOf(c)
	spt := z.SPT
	// Physical slot index whose start is at or after angle. The epsilon
	// absorbs float error so an angle computed by SectorAngle maps back to
	// the same sector.
	slot := int(math.Ceil(angle*float64(spt) - 1e-9))
	slot %= spt
	if slot < 0 {
		slot += spt
	}
	s := (slot - g.skewOffset(z, c, h)) % spt
	if s < 0 {
		s += spt
	}
	return s
}

// AngularWidth returns the angular width of one sector at cylinder c.
func (g *Geometry) AngularWidth(c int) float64 { return 1 / float64(g.SPTOf(c)) }

// Defects returns a copy of the defect list (sorted physical indexes).
func (g *Geometry) Defects() []int64 { return append([]int64(nil), g.defects...) }
