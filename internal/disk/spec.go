package disk

import (
	"fmt"
	"math"

	"repro/internal/des"
)

// Spec states a drive in datasheet terms and builds the simulated model
// from them. The two specs shipped here correspond to the drives supported
// by the MimdRAID prototype (the paper's results use the ST39133LWV).
type Spec struct {
	Name         string
	Cylinders    int
	Heads        int
	ReservedCyls int
	ZoneSPT      []int // outer to inner
	RPM          float64

	MinSeek, AvgSeek, MaxSeek des.Time // read seeks
	WriteSettle               des.Time
	HeadSwitch                des.Time

	Defects []int64

	// RSkew offsets the true rotation period from nominal by this
	// fraction (e.g. 3e-4 = +0.03%); real spindles are never exactly on
	// the datasheet speed and the head tracker must cope. Phase sets the
	// platter angle at time zero.
	RSkew float64
	Phase float64
}

// ST39133LWV returns the spec of the 9.1 GB 10000 RPM Seagate drive used
// for all results in the paper (Table 1: 5.2 ms read / 6.0 ms write
// average seek, ~900 us track switch).
func ST39133LWV() Spec {
	return Spec{
		Name:         "Seagate ST39133LWV (simulated)",
		Cylinders:    6962,
		Heads:        12,
		ReservedCyls: 2,
		ZoneSPT:      []int{240, 232, 224, 216, 208, 200, 190, 182},
		RPM:          10000,
		MinSeek:      800 * des.Microsecond,
		AvgSeek:      5200 * des.Microsecond,
		MaxSeek:      10500 * des.Microsecond,
		WriteSettle:  800 * des.Microsecond,
		HeadSwitch:   900 * des.Microsecond,
	}
}

// New builds the drive model. Skews are derived from the timing: track skew
// covers a head switch and cylinder skew a single-cylinder seek plus head
// switch, each padded by one sector, so sequential I/O crossing a boundary
// catches the next logical sector without losing a rotation.
func (sp Spec) New() (*Disk, error) {
	if sp.RPM <= 0 {
		return nil, fmt.Errorf("disk: non-positive RPM %v", sp.RPM)
	}
	g, err := NewGeometry(sp.Cylinders, sp.Heads, sp.ReservedCyls, sp.ZoneSPT, sp.Defects)
	if err != nil {
		return nil, err
	}
	nominalR := des.Time(60e6 / sp.RPM)
	r := des.Time(float64(nominalR) * (1 + sp.RSkew))

	maxDist := sp.Cylinders - 1
	sc, err := SolveSeekCurve(sp.MinSeek, sp.AvgSeek, sp.MaxSeek, maxDist, sp.WriteSettle)
	if err != nil {
		return nil, err
	}
	oneCyl := sc.Time(1, false)
	for i := range g.Zones {
		z := &g.Zones[i]
		z.TrackSkew = skewSectors(sp.HeadSwitch, r, z.SPT)
		z.CylSkew = skewSectors(oneCyl+sp.HeadSwitch, r, z.SPT)
	}
	return &Disk{
		Name:       sp.Name,
		Geom:       g,
		Seek:       sc,
		R:          r,
		NominalR:   nominalR,
		Phase:      sp.Phase,
		HeadSwitch: sp.HeadSwitch,
	}, nil
}

// skewSectors converts a switch latency into a sector offset with one
// sector of margin, capped below the track size.
func skewSectors(latency, r des.Time, spt int) int {
	s := int(math.Ceil(float64(latency)/float64(r)*float64(spt))) + 1
	if s >= spt {
		s = spt - 1
	}
	return s
}

// MustNew is New for tests and examples with known-good specs.
func (sp Spec) MustNew() *Disk {
	d, err := sp.New()
	if err != nil {
		panic(err)
	}
	return d
}
