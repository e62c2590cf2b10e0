// Command diskprobe demonstrates the software-only calibration machinery
// against a prototype-mode drive: it measures the rotation period, the
// command overhead, the seek curve, and (optionally) extracts the full
// zone geometry from timing probes alone, then prints discovered versus
// true values.
//
// This is the tooling a deployment would run once per drive at attach
// time; the MimdRAID prototype did the same against real Seagate disks.
//
// Usage:
//
//	diskprobe [-seed 3] [-geometry] [-rpm 10000]
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/bus"
	"repro/internal/calib"
	"repro/internal/des"
	"repro/internal/disk"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "diskprobe:", err)
		os.Exit(1)
	}
}

// run parses args, probes one simulated drive and prints the report.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("diskprobe", flag.ExitOnError)
	var (
		seed     = fs.Int64("seed", 1, "random seed for spindle phase/speed and timing noise")
		geometry = fs.Bool("geometry", false, "also run full zone-map extraction (thousands of probe I/Os)")
		rpm      = fs.Float64("rpm", 0, "override drive RPM")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(*seed))
	sp := disk.ST39133LWV()
	sp.RSkew = (rng.Float64()*2 - 1) * 4e-4
	sp.Phase = rng.Float64()
	if *rpm > 0 {
		sp.RPM = *rpm
	}
	d, err := sp.New()
	if err != nil {
		return err
	}
	sim := des.New()
	drv := bus.NewPrototype(sim, d, bus.DefaultNoise(), *seed+1)

	fmt.Fprintf(stdout, "probing %s (prototype mode, seed %d)\n\n", sp.Name, *seed)

	r := calib.MeasureRotation(sim, drv, d.NominalR)
	fmt.Fprintf(stdout, "rotation period:  measured %.3fus   true %.3fus   (error %+.3fus)\n",
		float64(r), float64(d.R), float64(r-d.R))

	oh := calib.MeasureOverheadSum(sim, drv, drv.Geometry(), r)
	fmt.Fprintf(stdout, "command overhead: measured %v (mean submit+complete+transfer)\n", oh)

	sc, err := calib.MeasureSeekCurve(sim, drv, drv.Geometry(), r, oh, d.Seek.WriteSettle)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "seek curve:       t(d) = %.0f + %.1f*sqrt(d) + %.3f*d us\n", sc.Alpha, sc.Beta, sc.Gamma)
	fmt.Fprintf(stdout, "  %-10s %12s %12s\n", "distance", "measured", "true")
	for _, dist := range []int{1, 10, 100, 1000, 3000, 6000} {
		fmt.Fprintf(stdout, "  %-10d %12v %12v\n", dist, sc.Time(dist, false), d.Seek.Time(dist, false))
	}

	trk := calib.NewTracker(drv.Geometry(), d.NominalR, oh/2)
	trk.Bootstrap(sim, drv)
	fmt.Fprintf(stdout, "\nhead tracker:     R estimate %.3fus after %d reference reads (rel err %.2e)\n",
		float64(trk.R()), trk.ObsCount, relErr(float64(trk.R()), float64(d.R)))

	if *geometry {
		fmt.Fprintln(stdout, "\nextracting zone geometry from timing probes...")
		g, err := calib.ExtractGeometry(sim, drv, d.NominalR)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "heads:      extracted %d, true %d\n", g.Heads, d.Geom.Heads)
		fmt.Fprintf(stdout, "track skew: extracted %d, true %d (outer zone)\n", g.TrackSkew, d.Geom.Zones[0].TrackSkew)
		fmt.Fprintf(stdout, "cyl skew:   extracted %d, true %d (outer zone)\n", g.CylSkew, d.Geom.Zones[0].CylSkew)
		fmt.Fprintf(stdout, "zones:      extracted %v\n", g.ZoneSPT)
		var truth []int
		for _, z := range d.Geom.Zones {
			truth = append(truth, z.SPT)
		}
		fmt.Fprintf(stdout, "            true      %v\n", truth)
	}
	fmt.Fprintf(stdout, "\n(simulated time consumed by probing: %v)\n", sim.Now())
	return nil
}

func relErr(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}
