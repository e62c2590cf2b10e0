package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/layout"
	"repro/internal/runner"
	"repro/internal/slo"
)

// The chaos experiment measures the crash/power-fail tolerance stack two
// ways. A recovery micro-benchmark power-fails a single array mid-load
// once per NVRAM durability mode and reconciles the recovery counters:
// battery-backed NVRAM must adopt every queued delayed copy (no loss),
// volatile NVRAM must lose them all and have the recovery scan detect and
// repair every resulting divergence (no silent loss). A cluster run then
// arms a seeded chaos scenario — drive failure, fail-slow window, two
// brick power-fail/recover cycles, a scrub pass, a client load burst —
// over a multi-brick sharded simulation and reports the windowed p99
// response time and SLO compliance while the events land. The cluster
// run's digest folds in the scenario timeline, every completion, and every
// brick's recovery counters; TestSameAtWorkersAndReruns holds it equal at
// epoch worker counts 1, 2, and 4.

// chaosRetry is the client's backoff before retrying a request a crashed
// brick rejected at submit.
const chaosRetry = 2 * des.Millisecond

// chaosSLO is the response-time bound the compliance metric counts
// against (generous: it should hold except during outage windows).
const chaosSLO = 50 * des.Millisecond

// chaosRunRes summarizes one cluster run; digest equality across worker
// counts is the determinism bar TestSameAtWorkersAndReruns holds.
type chaosRunRes struct {
	digest         string
	p99            []int64 // per window, ns
	window         des.Time
	brickTier      // the standard tier's tallies: every request is standard
	crashes        int64
	recoveries     int64
	adopted        int64
	lostDelayed    int64
	divergentFound int64
	repaired       int64
	unrepairable   int64
	divergentAfter int
	events         uint64
}

// runChaosCluster executes one cluster run on the sharded epoch engine.
func runChaosCluster(spec brickSpec, workers int) (*chaosRunRes, error) {
	w, events, err := runBrickWorld(spec, workers, "chaos cluster")
	if err != nil {
		return nil, err
	}
	t := w.tiers[slo.Standard]
	r := &chaosRunRes{window: spec.window, brickTier: t, events: events, p99: w.p99()}
	rec := ""
	for b, a := range w.arr {
		rc := a.Recovery()
		r.crashes += rc.Crashes
		r.recoveries += rc.Recoveries
		r.adopted += rc.Adopted
		r.lostDelayed += rc.LostDelayed
		r.divergentFound += rc.DivergentFound
		r.repaired += rc.Repaired
		r.unrepairable += rc.Unrepairable
		r.divergentAfter += a.DivergentCopies()
		rec += fmt.Sprintf(" b%d[cr=%d rec=%d ad=%d lost=%d scan=%d div=%d rep=%d unrep=%d drop=%d left=%d skip=%d]",
			b, rc.Crashes, rc.Recoveries, rc.Adopted, rc.LostDelayed, rc.Scanned,
			rc.DivergentFound, rc.Repaired, rc.Unrepairable, rc.RepairsDropped,
			a.DivergentCopies(), w.skipped[b])
	}
	r.digest = fmt.Sprintf("%sissued=%d ok=%d failed=%d rejected=%d latNs=%d last=%.6f perBrick=%v sloOK=%d p99=%v events=%d%s",
		spec.sc.Timeline(), w.issued, t.ok, t.failed, t.rejected, w.latNs,
		float64(w.last), w.perBrick, t.sloOK, r.p99, events, rec)
	return r, nil
}

// defaultChaosSpec sizes the cluster run: four 8-drive bricks under a
// volatile-NVRAM crash model (the mode that exercises the recovery scan),
// with the scenario horizon scaled to the workload length so the events
// land while the loop is hot.
func defaultChaosSpec(c Config) (brickSpec, error) {
	bricks := 4
	cfg := layout.Config{Ds: 2, Dr: 2, Dm: 2}
	horizon := des.Time(c.IometerIOs) * 150 * des.Microsecond
	sc, err := genScenario(c.Seed, chaos.Options{
		Bricks: bricks, DrivesPerBrick: cfg.Disks(),
		Start: 5 * des.Millisecond, Horizon: horizon,
		DriveFails: 1, SlowDrives: 1, BrickCrashes: 2, ScrubPasses: 1, LoadBursts: 1,
	})
	if err != nil {
		return brickSpec{}, err
	}
	spec := brickSpec{
		bricks: bricks,
		brick: core.Options{
			Config: cfg, Policy: policyFor(cfg),
			Crash: core.CrashModel{Enabled: true, Durability: core.Volatile},
		},
		seed: c.Seed, ios: c.IometerIOs * 2, outstanding: 32, sectors: 8, readFrac: 0.5,
		sc: sc, window: horizon / 16,
	}
	spec.tierSLO[slo.Standard] = chaosSLO
	return spec, nil
}

// recoveryRes is one durability mode's crash/recovery micro measurement.
type recoveryRes struct {
	rec            core.RecoveryCounters
	divergentAfter int
	nvramAfter     int
	okOps          int
	failedOps      int
	rejected       int
}

// runRecovery power-fails one array 40 ms into a half-write closed loop,
// recovers it 30 ms later, runs the workload to completion, and drains
// everything — recovery scan and queued repairs included — before reading
// the counters.
func runRecovery(durability core.NVRAMDurability, ios int, seed int64) (recoveryRes, error) {
	sim, a, err := buildArray(layout.RAID10(4), "rsatf", int64(1<<17), seed, func(o *coreOptions) {
		o.ObsLabel = "chaos/recovery/" + durability.String()
		o.Crash = core.CrashModel{
			Enabled: true,
			At:      40 * des.Millisecond, RecoverAfter: 30 * des.Millisecond,
			Durability: durability,
		}
	})
	if err != nil {
		return recoveryRes{}, err
	}
	var res recoveryRes
	const sectors = 8
	const outstanding = 8
	rng := rand.New(rand.NewSource(seed + 101))
	finished, issued := 0, 0
	var issue func()
	issue = func() {
		if issued >= ios {
			return
		}
		off := rng.Int63n(a.DataSectors() - sectors)
		op := core.Read
		if rng.Float64() >= 0.5 {
			op = core.Write
		}
		err := a.Submit(op, off, sectors, false, func(r coreResult) {
			finished++
			if r.Failed {
				res.failedOps++
			} else {
				res.okOps++
			}
			issue()
		})
		if err != nil {
			// Powered off: hold the slot and retry shortly.
			res.rejected++
			sim.After(chaosRetry, issue)
			return
		}
		issued++
	}
	for i := 0; i < outstanding && i < ios; i++ {
		issue()
	}
	for finished < ios {
		if !sim.Step() {
			return recoveryRes{}, fmt.Errorf("experiments: recovery run stalled at %d/%d", finished, ios)
		}
	}
	if !a.Drain(des.Hour) {
		return recoveryRes{}, fmt.Errorf("experiments: recovery run failed to drain")
	}
	sim.Run() // flush the recovery scan and any queued repairs
	res.rec = a.Recovery()
	res.divergentAfter = a.DivergentCopies()
	res.nvramAfter = a.NVRAMUsed()
	return res, nil
}

// Chaos is the registry experiment.
func Chaos(c Config) (*Figure, error) {
	durs := []core.NVRAMDurability{core.Volatile, core.BatteryBacked}
	micro, err := runner.Map(len(durs), func(i int) (recoveryRes, error) {
		return runRecovery(durs[i], c.IometerIOs, c.Seed)
	})
	if err != nil {
		return nil, err
	}

	spec, err := defaultChaosSpec(c)
	if err != nil {
		return nil, err
	}
	cl, err := runChaosCluster(spec, 1)
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		Name: "chaos", Title: "Chaos scenario on a 32-drive cluster (crashes, fail-slow, scrub, burst)",
		XLabel: "window end (ms of simulated time)", YLabel: "p99 response time (ms)",
	}
	fig.Series = append(fig.Series, p99Series("p99/chaos-cluster", cl.window, cl.p99))

	fig.Metric("cluster/ok", float64(cl.ok))
	fig.Metric("cluster/failed", float64(cl.failed))
	fig.Metric("cluster/rejected", float64(cl.rejected))
	fig.Metric("cluster/slo_ok", float64(cl.sloOK))
	if cl.ok > 0 {
		fig.Metric("cluster/slo_pct", 100*float64(cl.sloOK)/float64(cl.ok))
	}
	fig.Metric("cluster/crashes", float64(cl.crashes))
	fig.Metric("cluster/recoveries", float64(cl.recoveries))
	fig.Metric("cluster/adopted", float64(cl.adopted))
	fig.Metric("cluster/lost_delayed", float64(cl.lostDelayed))
	fig.Metric("cluster/divergent_found", float64(cl.divergentFound))
	fig.Metric("cluster/repaired", float64(cl.repaired))
	fig.Metric("cluster/unrepairable", float64(cl.unrepairable))
	fig.Metric("cluster/divergent_after", float64(cl.divergentAfter))
	fig.Metric("cluster/events", float64(cl.events))
	for i, d := range durs {
		name := d.String()
		r := micro[i]
		fig.Metric("recovery/"+name+"/crashes", float64(r.rec.Crashes))
		fig.Metric("recovery/"+name+"/recoveries", float64(r.rec.Recoveries))
		fig.Metric("recovery/"+name+"/adopted", float64(r.rec.Adopted))
		fig.Metric("recovery/"+name+"/lost_delayed", float64(r.rec.LostDelayed))
		fig.Metric("recovery/"+name+"/scanned", float64(r.rec.Scanned))
		fig.Metric("recovery/"+name+"/divergent_found", float64(r.rec.DivergentFound))
		fig.Metric("recovery/"+name+"/repaired", float64(r.rec.Repaired))
		fig.Metric("recovery/"+name+"/unrepairable", float64(r.rec.Unrepairable))
		fig.Metric("recovery/"+name+"/divergent_after", float64(r.divergentAfter))
		fig.Metric("recovery/"+name+"/failed_ops", float64(r.failedOps))
		fig.Metric("recovery/"+name+"/rejected", float64(r.rejected))
		fig.Metric("recovery/"+name+"/recovery_time_ms", float64(r.rec.RecoveryTime)/1000)
	}
	return fig, nil
}
