// Package layout implements the disk-array data placements the paper
// studies: striping, D-way mirroring, RAID-10, the SR-Array, and the
// general Ds x Dr x Dm SR-Mirror (Sections 2.3 and 2.5).
//
// A configuration distributes one logical volume over D = Ds*Dr*Dm disks:
//
//   - The volume is striped over G = Ds*Dr positions (round-robin by
//     stripe unit), so each disk holds 1/G of the data.
//   - Each disk stores Dr rotational replicas of its share, placed on
//     different tracks of the same cylinder at angles 360/Dr degrees
//     apart. The copies expand each disk's footprint to Dr/G = 1/Ds of its
//     cylinders, which is exactly the seek-distance reduction of Ds-way
//     striping (paper Figure 3).
//   - Each position is mirrored on Dm disks.
//
// Corner cases: D x 1 x 1 is plain striping, 1 x 1 x D is a D-way mirror,
// Ds x 1 x 2 is RAID-10, and Ds x Dr x 1 is an SR-Array.
//
// Rotational replicas are placed by absolute platter angle, not by logical
// sector number: replica j of a block sits at the block's base angle plus
// j/Dr revolutions on its own track. Because each track's skew differs,
// the corresponding sector numbers differ per track — this is the paper's
// "track skews must be re-arranged" requirement, realized here by angle
// arithmetic against the measured geometry.
package layout

import (
	"fmt"

	"repro/internal/disk"
)

// DefaultStripeUnit is 64 KB in sectors, the paper's striping unit.
const DefaultStripeUnit = 65536 / disk.SectorSize

// Config selects an array configuration.
type Config struct {
	Ds int // striping degree (fraction of cylinders used = 1/Ds)
	Dr int // rotational replicas per disk
	Dm int // mirror copies on distinct disks
	// StripeUnit in sectors; 0 means DefaultStripeUnit.
	StripeUnit int
	// IntraTrack places the Dr rotational replicas within a single track
	// (Ng's scheme) instead of on different tracks of the cylinder. It
	// shortens the effective track and costs large-I/O bandwidth — the
	// drawback that motivated the paper's cross-track placement (Section
	// 2.2); kept as an ablation.
	IntraTrack bool
}

// Disks returns the total number of drives the configuration needs.
func (c Config) Disks() int { return c.Ds * c.Dr * c.Dm }

// Positions returns the number of distinct data positions (disks per
// mirror copy).
func (c Config) Positions() int { return c.Ds * c.Dr }

func (c Config) String() string { return fmt.Sprintf("%dx%dx%d", c.Ds, c.Dr, c.Dm) }

// Striping returns a D x 1 x 1 configuration.
func Striping(d int) Config { return Config{Ds: d, Dr: 1, Dm: 1} }

// Mirror returns a 1 x 1 x D configuration.
func Mirror(d int) Config { return Config{Ds: 1, Dr: 1, Dm: d} }

// RAID10 returns a (D/2) x 1 x 2 configuration.
func RAID10(d int) Config { return Config{Ds: d / 2, Dr: 1, Dm: 2} }

// SRArray returns a Ds x Dr x 1 configuration.
func SRArray(ds, dr int) Config { return Config{Ds: ds, Dr: dr, Dm: 1} }

// Piece is the portion of a logical request that falls on one data
// position: the mirror disks that hold it and, per rotational replica, the
// physical extents.
type Piece struct {
	// Position is the data position index in [0, Ds*Dr).
	Position int
	// Mirrors lists the disk IDs holding this piece (length Dm); disk ID
	// m*Positions+Position for mirror m.
	Mirrors []int
	// Replicas[j] holds the extents of rotational replica j (length Dr).
	Replicas [][]disk.Extent
	// Off and Count locate the piece in the logical volume (sectors).
	Off   int64
	Count int
	// Chunk is the stripe-unit index the piece belongs to, the granularity
	// of delayed-write staleness tracking.
	Chunk int64
}

// Layout maps the logical volume onto the array.
type Layout struct {
	Cfg  Config
	Geom *disk.Geometry

	unit        int
	dataSectors int64
	perDisk     int64 // distinct data sectors per disk
	groupTracks int   // tracks per replica group = Heads/Dr

	// zone index: cumulative distinct-data capacity by zone.
	zoneCap []int64 // capacity of cylinders strictly before zone i ends... cumulative at zone end
	usedCyl int
}

// New validates and builds a layout for a volume of dataSectors logical
// sectors over identical drives with the given geometry.
func New(cfg Config, geom *disk.Geometry, dataSectors int64) (*Layout, error) {
	if cfg.Ds < 1 || cfg.Dr < 1 || cfg.Dm < 1 {
		return nil, fmt.Errorf("layout: invalid config %v", cfg)
	}
	if cfg.StripeUnit == 0 {
		cfg.StripeUnit = DefaultStripeUnit
	}
	if cfg.StripeUnit < 1 {
		return nil, fmt.Errorf("layout: invalid stripe unit %d", cfg.StripeUnit)
	}
	if dataSectors <= 0 {
		return nil, fmt.Errorf("layout: non-positive volume size %d", dataSectors)
	}
	if !cfg.IntraTrack && geom.Heads%cfg.Dr != 0 {
		return nil, fmt.Errorf("layout: Dr=%d must divide the %d disk surfaces so each replica owns whole tracks", cfg.Dr, geom.Heads)
	}
	if len(geom.Defects()) != 0 {
		return nil, fmt.Errorf("layout: drives with defects are not supported by the array layout (the prototype skipped defective regions at format time)")
	}
	g := int64(cfg.Positions())
	// Chunks are dealt round-robin, so a disk's data index space covers
	// whole stripe units: position 0 of a volume of n chunks holds
	// ceil(n/G) units even when the last unit is partial.
	numChunks := (dataSectors + int64(cfg.StripeUnit) - 1) / int64(cfg.StripeUnit)
	perDisk := (numChunks + g - 1) / g * int64(cfg.StripeUnit)
	if need := perDisk * int64(cfg.Dr); need > geom.TotalSectors() {
		return nil, fmt.Errorf("layout: %v needs %d sectors/disk for %d data sectors, drive holds %d", cfg, need, dataSectors, geom.TotalSectors())
	}
	groupTracks := geom.Heads / cfg.Dr
	if cfg.IntraTrack {
		groupTracks = geom.Heads // every track carries all replicas
	}
	l := &Layout{
		Cfg:         cfg,
		Geom:        geom,
		unit:        cfg.StripeUnit,
		dataSectors: dataSectors,
		perDisk:     perDisk,
		groupTracks: groupTracks,
	}
	// Distinct-data capacity cumulative per zone (logical cylinders only).
	lastCyl := geom.LogicalCylinders() - 1
	var cum int64
	for _, z := range geom.Zones {
		end := z.EndCyl
		if end > lastCyl {
			end = lastCyl
		}
		if z.StartCyl > lastCyl {
			break
		}
		cum += int64(end-z.StartCyl+1) * int64(l.groupTracks) * int64(l.slotsPerTrack(z.SPT))
		l.zoneCap = append(l.zoneCap, cum)
	}
	// Used cylinders: cylinder of the last data index.
	c, _, _ := l.locate(perDisk - 1)
	l.usedCyl = c + 1
	return l, nil
}

// DataSectors returns the logical volume size.
func (l *Layout) DataSectors() int64 { return l.dataSectors }

// UsedCylinders returns how many cylinders of each drive hold data — the
// seek-limiting footprint (≈ LogicalCylinders/Ds when the volume fills the
// array).
func (l *Layout) UsedCylinders() int { return l.usedCyl }

// StripeUnit returns the stripe unit in sectors.
func (l *Layout) StripeUnit() int { return l.unit }

// slotsPerTrack is the distinct-data capacity of one track: the whole
// track for cross-track replication, a 1/Dr region for intra-track.
func (l *Layout) slotsPerTrack(spt int) int {
	if l.Cfg.IntraTrack {
		return spt / l.Cfg.Dr
	}
	return spt
}

// locate maps a per-disk data index to (cylinder, trackInGroup, slot).
// Within a cylinder, data is track-major: index = track*slots + slot.
func (l *Layout) locate(idx int64) (cyl, track, slot int) {
	if idx < 0 || idx >= l.perDisk {
		panic(fmt.Sprintf("layout: data index %d out of [0,%d)", idx, l.perDisk))
	}
	var prev int64
	for zi, cum := range l.zoneCap {
		if idx < cum {
			z := l.Geom.Zones[zi]
			slots := l.slotsPerTrack(z.SPT)
			perCyl := int64(l.groupTracks) * int64(slots)
			rel := idx - prev
			cyl = z.StartCyl + int(rel/perCyl)
			rem := int(rel % perCyl)
			return cyl, rem / slots, rem % slots
		}
		prev = cum
	}
	panic(fmt.Sprintf("layout: data index %d beyond zone capacity", idx))
}

// place returns the physical location of replica j of the data block at
// (cyl, track, slot). Replica 0 sits at its natural sector; replica j sits
// j/Dr of a revolution later on track j*groupTracks+track, with the sector
// number resolved through that track's own skew.
func (l *Layout) place(cyl, track, slot, j int) disk.Chs {
	if l.Cfg.IntraTrack {
		// Replica j sits j/Dr of the track further along the same track.
		slots := l.slotsPerTrack(l.Geom.SPTOf(cyl))
		return disk.Chs{Cyl: cyl, Head: track, Sector: slot + j*slots}
	}
	h0 := track // replica group 0
	if j == 0 {
		return disk.Chs{Cyl: cyl, Head: h0, Sector: slot}
	}
	base := l.Geom.SectorAngle(disk.Chs{Cyl: cyl, Head: h0, Sector: slot})
	angle := base + float64(j)/float64(l.Cfg.Dr)
	if angle >= 1 {
		angle -= 1
	}
	hj := j*l.groupTracks + track
	return disk.Chs{Cyl: cyl, Head: hj, Sector: l.Geom.SectorAtAngle(cyl, hj, angle)}
}

// replicaExtents returns the physical extents of replica j for n data
// sectors starting at per-disk index idx. Runs are split at track
// boundaries of the data layout and at the physical wrap of each track.
func (l *Layout) replicaExtents(idx int64, n, j int) []disk.Extent {
	var out []disk.Extent
	for n > 0 {
		cyl, track, slot := l.locate(idx)
		spt := l.Geom.SPTOf(cyl)
		run := l.slotsPerTrack(spt) - slot
		if run > n {
			run = n
		}
		start := l.place(cyl, track, slot, j)
		// The replica's physical sectors are consecutive from start.Sector,
		// wrapping at the end of the track.
		first := spt - start.Sector
		if first > run {
			first = run
		}
		out = append(out, disk.Extent{Start: start, Count: first})
		if rest := run - first; rest > 0 {
			out = append(out, disk.Extent{Start: disk.Chs{Cyl: cyl, Head: start.Head, Sector: 0}, Count: rest})
		}
		idx += int64(run)
		n -= run
	}
	return out
}

// Arena is reusable backing storage for ResolveArena: all the slices a
// resolution needs come from four flat buffers that are truncated (not
// freed) between uses, so a caller resolving many requests through one
// Arena allocates only until the buffers reach their steady-state
// capacity. Results are handed out as capacity-limited subslices, so a
// holder appending to a returned slice (replica merging in the array
// layer) reallocates privately instead of stomping neighbouring results.
//
// An Arena must not be Reset (or passed to ResolveArena again) while any
// result resolved from it is still in use.
type Arena struct {
	pieces  []Piece
	mirrors []int
	reps    [][]disk.Extent
	extents []disk.Extent
}

// Reset forgets previous contents, retaining capacity.
func (a *Arena) Reset() {
	a.pieces = a.pieces[:0]
	a.mirrors = a.mirrors[:0]
	a.reps = a.reps[:0]
	a.extents = a.extents[:0]
}

// Poison overwrites every buffer through its full capacity with values no
// resolution produces (negative chunk, offset and cylinder, nil replica
// lists), so a Piece or extent slice kept past its arena's reuse fails
// loudly instead of reading the next request's placement. For pool-poisoning
// tests; capacity is retained.
func (a *Arena) Poison() {
	pieces := a.pieces[:cap(a.pieces)]
	for i := range pieces {
		pieces[i] = Piece{Position: -1, Off: -1, Count: -1, Chunk: -1}
	}
	mirrors := a.mirrors[:cap(a.mirrors)]
	for i := range mirrors {
		mirrors[i] = -1
	}
	clear(a.reps[:cap(a.reps)])
	extents := a.extents[:cap(a.extents)]
	for i := range extents {
		extents[i] = disk.Extent{Start: disk.Chs{Cyl: -1, Head: -1, Sector: -1}, Count: -1}
	}
}

// ResolveArena is Resolve backed by ar's buffers (which it Resets first).
// The returned pieces are value-identical to Resolve's. A nil arena falls
// back to plain Resolve.
func (l *Layout) ResolveArena(off int64, count int, ar *Arena) ([]Piece, error) {
	if ar == nil {
		return l.Resolve(off, count)
	}
	if off < 0 || count <= 0 || off+int64(count) > l.dataSectors {
		return nil, fmt.Errorf("layout: range [%d,+%d) outside volume of %d sectors", off, count, l.dataSectors)
	}
	ar.Reset()
	g := l.Cfg.Positions()
	for count > 0 {
		chunk := off / int64(l.unit)
		within := int(off % int64(l.unit))
		n := l.unit - within
		if n > count {
			n = count
		}
		pos := int(chunk % int64(g))
		idx := (chunk/int64(g))*int64(l.unit) + int64(within)
		mStart := len(ar.mirrors)
		for m := 0; m < l.Cfg.Dm; m++ {
			ar.mirrors = append(ar.mirrors, m*g+pos)
		}
		rStart := len(ar.reps)
		for j := 0; j < l.Cfg.Dr; j++ {
			ar.reps = append(ar.reps, nil)
		}
		for j := 0; j < l.Cfg.Dr; j++ {
			ar.reps[rStart+j] = l.replicaExtentsArena(idx, n, j, ar)
		}
		mEnd, rEnd := len(ar.mirrors), len(ar.reps)
		ar.pieces = append(ar.pieces, Piece{
			Position: pos,
			Off:      off,
			Count:    n,
			Chunk:    chunk,
			Mirrors:  ar.mirrors[mStart:mEnd:mEnd],
			Replicas: ar.reps[rStart:rEnd:rEnd],
		})
		off += int64(n)
		count -= n
	}
	n := len(ar.pieces)
	return ar.pieces[0:n:n], nil
}

// replicaExtentsArena is replicaExtents appending into the arena's flat
// extent buffer, returning a capacity-limited subslice.
func (l *Layout) replicaExtentsArena(idx int64, n, j int, ar *Arena) []disk.Extent {
	start := len(ar.extents)
	for n > 0 {
		cyl, track, slot := l.locate(idx)
		spt := l.Geom.SPTOf(cyl)
		run := l.slotsPerTrack(spt) - slot
		if run > n {
			run = n
		}
		s := l.place(cyl, track, slot, j)
		first := spt - s.Sector
		if first > run {
			first = run
		}
		ar.extents = append(ar.extents, disk.Extent{Start: s, Count: first})
		if rest := run - first; rest > 0 {
			ar.extents = append(ar.extents, disk.Extent{Start: disk.Chs{Cyl: cyl, Head: s.Head, Sector: 0}, Count: rest})
		}
		idx += int64(run)
		n -= run
	}
	end := len(ar.extents)
	return ar.extents[start:end:end]
}

// Resolve splits the logical range [off, off+count) into pieces, one per
// stripe chunk touched, each fully resolved to mirror disks and rotational
// replica extents.
func (l *Layout) Resolve(off int64, count int) ([]Piece, error) {
	if off < 0 || count <= 0 || off+int64(count) > l.dataSectors {
		return nil, fmt.Errorf("layout: range [%d,+%d) outside volume of %d sectors", off, count, l.dataSectors)
	}
	g := l.Cfg.Positions()
	var pieces []Piece
	for count > 0 {
		chunk := off / int64(l.unit)
		within := int(off % int64(l.unit))
		n := l.unit - within
		if n > count {
			n = count
		}
		pos := int(chunk % int64(g))
		idx := (chunk/int64(g))*int64(l.unit) + int64(within)
		p := Piece{
			Position: pos,
			Off:      off,
			Count:    n,
			Chunk:    chunk,
			Replicas: make([][]disk.Extent, l.Cfg.Dr),
		}
		for m := 0; m < l.Cfg.Dm; m++ {
			p.Mirrors = append(p.Mirrors, m*g+pos)
		}
		for j := 0; j < l.Cfg.Dr; j++ {
			p.Replicas[j] = l.replicaExtents(idx, n, j)
		}
		pieces = append(pieces, p)
		off += int64(n)
		count -= n
	}
	return pieces, nil
}

// ReplicaAngles returns the platter angles of every rotational replica of
// the data block at logical offset off — a verification hook for the
// even-spacing invariant.
func (l *Layout) ReplicaAngles(off int64) ([]float64, error) {
	pieces, err := l.Resolve(off, 1)
	if err != nil {
		return nil, err
	}
	var angles []float64
	for j := range pieces[0].Replicas {
		e := pieces[0].Replicas[j][0]
		angles = append(angles, l.Geom.SectorAngle(e.Start))
	}
	return angles, nil
}
