package calib

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bus"
	"repro/internal/des"
	"repro/internal/disk"
)

// protoDrive builds a prototype-mode drive whose spindle is off nominal
// speed and phase, behind the default noise model.
func protoDrive(t testing.TB, seed int64) (*des.Sim, *bus.Drive, *disk.Disk) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sp := disk.ST39133LWV()
	sp.RSkew = (rng.Float64()*2 - 1) * 4e-4 // within ±0.04% of nominal
	sp.Phase = rng.Float64()
	d, err := sp.New()
	if err != nil {
		t.Fatal(err)
	}
	sim := des.New()
	drv := bus.NewPrototype(sim, d, bus.DefaultNoise(), seed+1)
	return sim, drv, d
}

// truePostMean returns the mean completion-side overhead of the default
// noise model plus the single-sector bus transfer, which a deployment
// would obtain from MeasureOverheadSum.
func truePostMean() des.Time {
	n := bus.DefaultNoise()
	return n.PostBase + n.PostJitter + des.Time(disk.SectorSize/(160e6/1e6))
}

func TestTrackerEstimatesRotationPeriod(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		sim, drv, d := protoDrive(t, seed)
		trk := NewTracker(drv.Geometry(), d.NominalR, truePostMean())
		trk.Bootstrap(sim, drv)
		relErr := math.Abs(float64(trk.R()-d.R)) / float64(d.R)
		if relErr > 2e-6 {
			t.Errorf("seed %d: R estimate off by %.2e relative (est %v true %v)", seed, relErr, trk.R(), d.R)
		}
	}
}

func TestTrackerPredictsAngleWithinOnePercent(t *testing.T) {
	sim, drv, d := protoDrive(t, 42)
	trk := NewTracker(drv.Geometry(), d.NominalR, truePostMean())
	trk.Bootstrap(sim, drv)
	if !trk.calOK {
		t.Fatal("tracker not calibrated after bootstrap")
	}
	// Sample prediction error over the following two minutes (the paper's
	// recalibration interval): 98% of predictions within 1% of a rotation.
	rng := rand.New(rand.NewSource(9))
	start := sim.Now()
	var errs []float64
	for i := 0; i < 2000; i++ {
		at := start + des.Time(rng.Float64()*float64(2*des.Minute))
		pred := trk.AngleAt(at)
		truth := d.AngleAt(at)
		e := math.Abs(circDiff(pred, truth))
		errs = append(errs, e)
	}
	sort.Float64s(errs)
	p98 := errs[int(0.98*float64(len(errs)))]
	if p98 > 0.012 {
		t.Fatalf("98th percentile angle error = %.4f rotations, want <= 0.012 (1%% + margin)", p98)
	}
}

func circDiff(a, b float64) float64 {
	d := a - b
	d -= math.Round(d)
	return d
}

func TestTrackerStaysCalibratedAcrossRecalibrations(t *testing.T) {
	sim, drv, d := protoDrive(t, 7)
	trk := NewTracker(drv.Geometry(), d.NominalR, truePostMean())
	trk.Bootstrap(sim, drv)

	// Run half an hour of periodic recalibration, checking prediction
	// accuracy at the end of each interval (the worst moment).
	horizon := sim.Now() + 30*des.Minute
	for sim.Now() < horizon {
		next := sim.Now() + trk.RecalibrateEvery
		sim.RunUntil(next)
		if !trk.Due(sim.Now()) {
			t.Fatal("tracker not due after a full interval")
		}
		at := sim.Now()
		e := math.Abs(circDiff(trk.AngleAt(at), d.AngleAt(at)))
		if e > 0.02 {
			t.Fatalf("at %v: angle error %.4f rotations just before recalibration", at, e)
		}
		comp := runCmd(sim, drv, trk.RefCommand())
		trk.Observe(comp)
	}
	if trk.ObsCount < 15 {
		t.Fatalf("expected periodic observations, got %d", trk.ObsCount)
	}
}

func TestTrackerIgnoresForeignCompletions(t *testing.T) {
	sim, drv, d := protoDrive(t, 3)
	trk := NewTracker(drv.Geometry(), d.NominalR, truePostMean())
	comp := runCmd(sim, drv, bus.Command{Op: bus.OpRead, LBA: 999, Count: 1})
	trk.Observe(comp)
	if trk.ObsCount != 0 {
		t.Fatal("tracker consumed a non-reference completion")
	}
}

func TestOpportunisticObserveReducesDrift(t *testing.T) {
	sim, drv, d := protoDrive(t, 21)
	trk := NewTracker(drv.Geometry(), d.NominalR, truePostMean())
	trk.Bootstrap(sim, drv)
	// Inject an artificial anchor error, then feed ordinary completions;
	// the damped corrections should shrink the error.
	trk.anchorT += des.Time(0.05 * float64(trk.R())) // 5% of a rotation
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 60; i++ {
		lba := rng.Int63n(drv.Geometry().TotalSectors() - 8)
		comp := runCmd(sim, drv, bus.Command{Op: bus.OpRead, LBA: lba, Count: 1})
		end, err := drv.Geometry().LBAToPhys(lba)
		if err != nil {
			t.Fatal(err)
		}
		trk.OpportunisticObserve(comp, end)
	}
	at := sim.Now()
	e := math.Abs(circDiff(trk.AngleAt(at), d.AngleAt(at)))
	if e > 0.02 {
		t.Fatalf("angle error after opportunistic updates = %.4f rotations, want < 0.02", e)
	}
}

func TestSlackControllerConverges(t *testing.T) {
	s := NewSlackController(4)
	// Phase 1: 5% miss rate -> k must grow.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		s.Record(rng.Float64() < 0.05)
	}
	if s.K() <= 4 {
		t.Fatalf("k = %d after sustained misses, want growth", s.K())
	}
	grown := s.K()
	// Phase 2: no misses -> k shrinks, but never below MinK.
	for i := 0; i < 20000; i++ {
		s.Record(false)
	}
	if s.K() >= grown {
		t.Fatalf("k = %d after clean run, want shrink from %d", s.K(), grown)
	}
	if s.K() < s.MinK {
		t.Fatalf("k = %d below MinK %d", s.K(), s.MinK)
	}
}

// With a physically plausible miss model — misses become exponentially
// rarer as slack grows — the controller settles near the smallest k that
// meets the target rate instead of drifting.
func TestSlackControllerEquilibrates(t *testing.T) {
	s := NewSlackController(0)
	rng := rand.New(rand.NewSource(2))
	missProb := func(k int) float64 { return 0.3 * math.Exp(-float64(k)/3) }
	// Warm up to equilibrium.
	for i := 0; i < 30000; i++ {
		s.Record(rng.Float64() < missProb(s.K()))
	}
	// Measure over a long steady window.
	misses, total := 0, 60000
	var kSum int
	for i := 0; i < total; i++ {
		hit := rng.Float64() < missProb(s.K())
		if hit {
			misses++
		}
		kSum += s.K()
		s.Record(hit)
	}
	rate := float64(misses) / float64(total)
	if rate > 0.02 {
		t.Fatalf("steady-state miss rate = %.4f, want <= 0.02", rate)
	}
	avgK := float64(kSum) / float64(total)
	// exp(-k/3)*0.3 <= 0.01 at k ≈ 10.2; equilibrium should hover near it,
	// not pin at MaxK.
	if avgK < 6 || avgK > 24 {
		t.Fatalf("average k = %.1f, want near the smallest sufficient slack (~10)", avgK)
	}
}

func TestAccuracyStatsReport(t *testing.T) {
	var a AccuracyStats
	r := des.Time(6000)
	// 99 on-target predictions with small errors, 1 rotation miss.
	for i := 0; i < 99; i++ {
		a.Add(PredictionRecord{Predicted: 2000, Measured: 2000 + des.Time(i%5)})
	}
	a.Add(PredictionRecord{Predicted: 2000, Measured: 2000 + r})
	miss, mean, std, acc, demerit := a.Report(r)
	if math.Abs(miss-0.01) > 1e-9 {
		t.Errorf("miss rate = %v, want 0.01", miss)
	}
	if mean < 0 || mean > 70 {
		t.Errorf("mean error = %v, implausible", mean)
	}
	if std <= 0 {
		t.Errorf("std = %v, want > 0", std)
	}
	if acc < 2000 {
		t.Errorf("mean access = %v", acc)
	}
	if demerit < std {
		t.Errorf("demerit %v should be >= std %v with a mean offset", demerit, std)
	}
}

func TestExactEstimatorMatchesDisk(t *testing.T) {
	sp := disk.ST39133LWV()
	d := sp.MustNew()
	e := &Exact{Dsk: d, Overhead: 300}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 50; i++ {
		c := rng.Intn(d.Geom.Cylinders)
		req := disk.Request{Start: disk.Chs{Cyl: c, Head: rng.Intn(d.Geom.Heads), Sector: rng.Intn(d.Geom.SPTOf(c))}, Count: 1}
		st := disk.State{Cyl: rng.Intn(d.Geom.Cylinders)}
		now := des.Time(rng.Float64() * 1e6)
		got := access(e, st, req, now)
		tm, err := d.Service(st, req, now+150)
		if err != nil {
			t.Fatal(err)
		}
		if want := tm.Total() + 300; got != want {
			t.Fatalf("Exact.Access = %v, want %v", got, want)
		}
	}
}

// The tracked estimator's predictions should match the true service time
// closely for most requests (this is the in-vitro version of Table 2).
func TestTrackedEstimatorPredictionError(t *testing.T) {
	sim, drv, d := protoDrive(t, 99)
	trk := NewTracker(drv.Geometry(), d.NominalR, truePostMean())
	trk.Bootstrap(sim, drv)

	noise := bus.DefaultNoise()
	est := &Tracked{
		Geom:       drv.Geometry(),
		Seek:       d.Seek, // assume the profiler recovered the curve
		HeadSwitch: d.HeadSwitch,
		Pre:        noise.PreBase + noise.PreJitter,
		Post:       truePostMean(),
		Trk:        trk,
	}
	rng := rand.New(rand.NewSource(123))
	var stats AccuracyStats
	for i := 0; i < 400; i++ {
		lba := rng.Int63n(drv.Geometry().TotalSectors() - 16)
		p, err := drv.Geometry().LBAToPhys(lba)
		if err != nil {
			t.Fatal(err)
		}
		req := disk.Request{Start: p, Count: 1}
		pred := access(est, drv.ArmState(), req, sim.Now())
		comp := runCmd(sim, drv, bus.Command{Op: bus.OpRead, LBA: lba, Count: 1})
		stats.Add(PredictionRecord{Predicted: pred, Measured: comp.ServiceTime()})
	}
	miss, _, _, _, _ := stats.Report(trk.R())
	if miss > 0.02 {
		t.Fatalf("rotation miss rate = %.3f, want <= 0.02", miss)
	}
	// On-target predictions (the ~99%+ that did not lose a rotation; in
	// the full system the slack loop pushes the rest below 1%) should be
	// tightly clustered: that is Table 2's 3us mean / 31us sigma regime,
	// widened here by the synthetic jitter model.
	var sum, sumSq float64
	n := 0
	for _, rec := range stats.records {
		if rec.IsRotationMiss(trk.R()) {
			continue
		}
		e := float64(rec.Error())
		sum += e
		sumSq += e * e
		n++
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean) > 100 {
		t.Fatalf("on-target mean prediction error = %.1fus, want |mean| <= 100us", mean)
	}
	if std > 200 {
		t.Fatalf("on-target prediction error std = %.1fus, want <= 200us", std)
	}
}

func TestTrackerWindowBounded(t *testing.T) {
	sim, drv, d := protoDrive(t, 31)
	trk := NewTracker(drv.Geometry(), d.NominalR, truePostMean())
	trk.Window = 8
	trk.Bootstrap(sim, drv)
	for i := 0; i < 30; i++ {
		comp := runCmd(sim, drv, trk.RefCommand())
		trk.Observe(comp)
	}
	if len(trk.history) > trk.Window {
		t.Fatalf("history grew to %d, window is %d", len(trk.history), trk.Window)
	}
}

func TestSlackControllerRespectsMaxK(t *testing.T) {
	s := NewSlackController(0)
	s.MaxK = 6
	for i := 0; i < 50000; i++ {
		s.Record(true) // everything misses
	}
	if s.K() > s.MaxK {
		t.Fatalf("k = %d exceeded MaxK %d", s.K(), s.MaxK)
	}
	if s.K() != s.MaxK {
		t.Fatalf("k = %d under constant misses, want pinned at MaxK %d", s.K(), s.MaxK)
	}
}

// The tracked estimator's multi-extent AccessRun equals the sum of chained
// single-extent estimates.
func TestTrackedAccessRunChains(t *testing.T) {
	sim, drv, d := protoDrive(t, 37)
	trk := NewTracker(drv.Geometry(), d.NominalR, truePostMean())
	trk.Bootstrap(sim, drv)
	noise := bus.DefaultNoise()
	est := &Tracked{
		Geom:       drv.Geometry(),
		Seek:       d.Seek,
		HeadSwitch: d.HeadSwitch,
		Pre:        noise.PreBase + noise.PreJitter,
		Post:       truePostMean(),
		Trk:        trk,
	}
	extents := []disk.Extent{
		{Start: disk.Chs{Cyl: 100, Head: 0, Sector: 5}, Count: 16},
		{Start: disk.Chs{Cyl: 100, Head: 3, Sector: 40}, Count: 16},
	}
	st := disk.State{Cyl: 90}
	now := sim.Now()
	run := est.AccessRun(st, extents, false, now)
	first := access(est, st, disk.Request{Start: extents[0].Start, Count: 16}, now)
	second := access(est, disk.State{Cyl: 100, Head: 0}, disk.Request{Start: extents[1].Start, Count: 16}, now+first)
	if math.Abs(float64(run-(first+second))) > 1e-6 {
		t.Fatalf("AccessRun = %v, chained = %v", run, first+second)
	}
	// Fragmentation costs more than the contiguous equivalent.
	single := access(est, st, disk.Request{Start: extents[0].Start, Count: 32}, now)
	if run <= single {
		t.Fatalf("two-extent run %v not above one contiguous command %v", run, single)
	}
}
