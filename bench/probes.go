package main

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/calib"
	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/sched"
)

// Leaf layers that no interface exposes are timed by probes: direct calls
// to their public functions on fixed seeded inputs, in probeBatches
// batches, reporting the upper quartile of the batch rates (i.e. the lower
// quartile of ns per call), the estimator that repeated best on the
// reference box.
const (
	probeBatches = 40
	probeSeed    = 7
)

// probeNs times fn, which performs calls operations, probeBatches times.
func probeNs(calls int, fn func()) float64 {
	fn() // warm caches and lazy state
	ns := make([]float64, probeBatches)
	for i := range ns {
		t0 := time.Now()
		fn()
		ns[i] = float64(time.Since(t0)) / float64(calls)
	}
	sort.Float64s(ns)
	return percentile(ns, 25)
}

// sink keeps probe results live so the calls are not optimized away.
var sink float64

func probes(m map[string]float64) {
	m["disk.service_calc_ns"] = probeDiskService()
	m["sched.pick_ns_q8"] = probeSchedPick(8)
	m["sched.pick_ns_q128"] = probeSchedPick(128)
	m["des.pushpop_ns"] = probeDESPushPop()
}

// probeDiskService times Disk.Service on seeded arm-state/request pairs.
func probeDiskService() float64 {
	d := disk.ST39133LWV().MustNew()
	g := d.Geom
	rng := rand.New(rand.NewSource(probeSeed))
	const pairs = 4096
	states := make([]disk.State, pairs)
	reqs := make([]disk.Request, pairs)
	for i := range reqs {
		states[i] = disk.State{Cyl: rng.Intn(g.LogicalCylinders()), Head: rng.Intn(g.Heads)}
		cyl := rng.Intn(g.LogicalCylinders())
		reqs[i] = disk.Request{
			Start: disk.Chs{Cyl: cyl, Head: rng.Intn(g.Heads), Sector: rng.Intn(g.SPTOf(cyl))},
			Count: ioSectors, Write: i%4 == 0,
		}
	}
	return probeNs(pairs, func() {
		for i := range reqs {
			t, err := d.Service(states[i], reqs[i], des.Time(i)*37)
			if err != nil {
				panic(err)
			}
			sink += float64(t.Seek)
		}
	})
}

// probeSchedPick times one rsatf scheduling decision over a queue of depth
// requests, each with three same-cylinder rotational replicas and a
// freshness mask: the 2x3 SR-Array shape array reads present.
func probeSchedPick(depth int) float64 {
	d := disk.ST39133LWV().MustNew()
	g := d.Geom
	est := &calib.Exact{Dsk: d, Overhead: 200}
	rng := rand.New(rand.NewSource(probeSeed))
	queue := make([]*sched.Request, depth)
	for i := range queue {
		cyl := rng.Intn(g.LogicalCylinders() / 2)
		var reps []sched.Replica
		for j := 0; j < 3; j++ {
			p := disk.Chs{Cyl: cyl, Head: j * (g.Heads / 3), Sector: g.SPTOf(cyl) * j / 3}
			reps = append(reps, sched.Replica{Extents: []disk.Extent{{Start: p, Count: ioSectors}}})
		}
		queue[i] = &sched.Request{
			ID: uint64(i), Arrive: des.Time(i),
			Replicas: reps, AllowedReplicas: []bool{true, true, true},
		}
	}
	s, err := sched.New("rsatf")
	if err != nil {
		panic(err)
	}
	arm := disk.State{Cyl: g.LogicalCylinders() / 4}
	picks := 16384 / depth
	return probeNs(picks, func() {
		for i := 0; i < picks; i++ {
			c, ok := s.Pick(des.Time(depth+i), arm, queue, est)
			if !ok {
				panic("bench: scheduler probe found nothing to pick")
			}
			sink += float64(c.Predicted)
		}
	})
}

// probeDESPushPop times one Sim.Step that pops an event and pushes its
// successor, with 1024 events pending.
func probeDESPushPop() float64 {
	const pending = 1024
	sim := des.New()
	rng := rand.New(rand.NewSource(probeSeed))
	var fire func(any)
	fire = func(any) { sim.AtArg(sim.Now()+des.Time(rng.Float64()*1000), fire, nil) }
	for i := 0; i < pending; i++ {
		sim.AtArg(des.Time(rng.Float64()*1000), fire, nil)
	}
	const steps = 16384
	return probeNs(steps, func() {
		for i := 0; i < steps; i++ {
			sim.Step()
		}
	})
}
