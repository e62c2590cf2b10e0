package cluster

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/disk"
)

// watchedBrick wraps a brick array so a test can see and steer what the
// router sends it: it counts reads, and while failWith is set it rejects
// every submission with that error.
type watchedBrick struct {
	*core.Array
	reads    int
	failWith error
}

func (b *watchedBrick) Submit(op core.Op, off int64, count int, async bool, done func(core.Result)) error {
	if op == core.Read {
		b.reads++
	}
	if b.failWith != nil {
		return b.failWith
	}
	return b.Array.Submit(op, off, count, async, done)
}

// newWatchedCluster builds a colocated cluster of n watched bricks.
func newWatchedCluster(t *testing.T, n int, opts Options) (*des.Sim, *Cluster, []*watchedBrick) {
	t.Helper()
	sim := des.New()
	ws := make([]*watchedBrick, n)
	vols := make([]core.Volume, n)
	for i := range ws {
		ws[i] = &watchedBrick{Array: newBrick(t, sim, int64(i+1))}
		vols[i] = ws[i]
	}
	c, err := New(sim, vols, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sim, c, ws
}

// completionDigest fingerprints a sequence of completions.
type completionDigest struct{ h hash.Hash64 }

func newCompletionDigest() *completionDigest { return &completionDigest{h: fnv.New64a()} }

func (d *completionDigest) add(r core.Result) {
	fmt.Fprintf(d.h, "%v:%d:%d:%d:%v;", r.Op, r.Off, int64(r.Submit), int64(r.Done), r.Failed)
}

func (d *completionDigest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// closedLoop keeps four 8-sector requests outstanding until ios more have
// been issued (writes with probability writeShare), handing every
// completion to each. The caller runs the simulator.
func closedLoop(t *testing.T, cl *Cluster, rng *rand.Rand, ios int, writeShare float64, each func(core.Result)) {
	t.Helper()
	var issue func()
	issue = func() {
		if ios == 0 {
			return
		}
		ios--
		off := rng.Int63n(cl.DataSectors() - 8)
		op := core.Read
		if rng.Float64() < writeShare {
			op = core.Write
		}
		if err := cl.Submit(op, off, 8, false, func(r core.Result) {
			each(r)
			issue()
		}); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	for i := 0; i < 4; i++ {
		issue()
	}
}

// TestBreakerLatencySuspectAndReturn pins the breaker's latency path: a
// brick whose every drive runs eight times slow goes Suspect once the
// trackers hold enough samples, reads route around it while it stays
// Suspect, and once the slowness clears its EWMA settles back and it
// returns to Healthy.
func TestBreakerLatencySuspectAndReturn(t *testing.T) {
	sim, cl, ws := newWatchedCluster(t, 3, Options{Replicas: 2, ExtentSectors: 512, Seed: 42})
	setSlow := func(p disk.SlowProfile) {
		for d := 0; d < ws[1].Disks(); d++ {
			if err := ws[1].SetDriveSlow(d, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	setSlow(disk.SlowProfile{Factor: 8})
	rng := rand.New(rand.NewSource(11))
	dg := newCompletionDigest()
	failed := 0
	each := func(r core.Result) {
		dg.add(r)
		if r.Failed {
			failed++
		}
	}

	// Phase 1: the slow brick collects its samples and goes Suspect.
	closedLoop(t, cl, rng, 300, 0.3, each)
	sim.Run()
	if cl.br[1].samples < 16 || cl.allSamples < 16 {
		t.Fatalf("phase 1 left %d brick samples and %d cluster samples, want >= 16", cl.br[1].samples, cl.allSamples)
	}
	if got := cl.State(1); got != Suspect {
		t.Fatalf("slow brick is %v after %d samples (EWMA %.0f ns vs cluster %.0f ns), want suspect",
			got, cl.br[1].samples, cl.br[1].ewmaNs, cl.allEwmaNs)
	}
	if n := cl.Counters().Suspects; n < 1 {
		t.Fatalf("Suspects = %d, want >= 1", n)
	}

	// Phase 2: still slow, still Suspect; every read prefers the Healthy
	// replica, while writes keep feeding the slow brick's tracker.
	readsBefore := ws[1].reads
	closedLoop(t, cl, rng, 200, 0.3, each)
	sim.Run()
	if got := cl.State(1); got != Suspect {
		t.Fatalf("slow brick left Suspect while still slow: %v", got)
	}
	if n := ws[1].reads - readsBefore; n != 0 {
		t.Fatalf("%d reads routed to the Suspect brick with a Healthy replica available", n)
	}

	// Phase 3: the slowness clears; writes bring the EWMA back under the
	// return factor and the brick is readmitted.
	setSlow(disk.SlowProfile{})
	returned := false
	closedLoop(t, cl, rng, 600, 0.3, func(r core.Result) {
		each(r)
		if cl.State(1) == Healthy {
			returned = true
		}
	})
	sim.Run()
	if !returned || cl.State(1) != Healthy {
		t.Fatalf("recovered brick is %v (EWMA %.0f ns vs cluster %.0f ns), want healthy",
			cl.State(1), cl.br[1].ewmaNs, cl.allEwmaNs)
	}
	if ws[1].reads == readsBefore {
		t.Error("readmitted brick received no reads")
	}
	if failed != 0 {
		t.Errorf("%d requests failed; a slow brick must cost latency only", failed)
	}
	ctr := cl.Counters()
	if ctr.Trips != 0 || ctr.ReadFailovers != 0 {
		t.Errorf("latency alone moved failure counters: %+v", ctr)
	}
	const want = "61b8cfd9dd986210"
	if got := dg.String(); got != want {
		t.Errorf("completion digest %s, want %s", got, want)
	}
}

// TestBreakerFailureSuspectThenTrip pins the breaker's failure path with
// an error that is neither a crash nor a shed: one failure makes the brick
// Suspect, a success resets the run, and exactly three consecutive
// failures open the breaker. Once the brick serves again a probe closes it
// and backfill clears every write it missed.
func TestBreakerFailureSuspectThenTrip(t *testing.T) {
	sim, cl, ws := newWatchedCluster(t, 3, Options{Replicas: 2, ExtentSectors: 512, Seed: 42})
	errMedia := errors.New("injected media error")
	dg := newCompletionDigest()
	// run submits one 8-sector request at extent e and steps the simulator
	// only until it completes, so no probe fires behind the test's back.
	run := func(op core.Op, e int64) {
		t.Helper()
		done := false
		if err := cl.Submit(op, e*cl.pm.extentSectors, 8, false, func(r core.Result) {
			dg.add(r)
			done = true
			if r.Failed {
				t.Errorf("%v of extent %d failed with a healthy replica: %v", op, e, r.Err)
			}
		}); err != nil {
			t.Fatalf("%v of extent %d rejected: %v", op, e, err)
		}
		for !done && sim.Step() {
		}
		if !done {
			t.Fatalf("%v of extent %d never completed", op, e)
		}
	}
	// Extents with a replica on brick 1; first is one brick 1 serves first.
	var onB1 []int64
	first := int64(-1)
	for e := int64(0); e < cl.pm.extents; e++ {
		for k, b := range cl.replicas(e) {
			if b == 1 {
				onB1 = append(onB1, e)
				if k == 0 && first < 0 {
					first = e
				}
			}
		}
	}
	if first < 0 || len(onB1) < 4 {
		t.Fatalf("placement gave brick 1 %d extents, none first", len(onB1))
	}
	var targets []int64
	for _, e := range onB1 {
		if e != first {
			targets = append(targets, e)
		}
	}

	ws[1].failWith = errMedia
	run(core.Read, first)
	ctr := cl.Counters()
	if cl.State(1) != Suspect || ctr.Suspects != 1 || ctr.ReadFailovers != 1 || ctr.Trips != 0 {
		t.Fatalf("after one failure: state %v, counters %+v; want suspect, one failover, no trip", cl.State(1), ctr)
	}

	// A success resets the consecutive run.
	ws[1].failWith = nil
	run(core.Write, targets[0])
	ws[1].failWith = errMedia
	run(core.Write, targets[1])
	run(core.Write, targets[2])
	if ctr := cl.Counters(); ctr.Trips != 0 || cl.State(1) != Suspect {
		t.Fatalf("two consecutive failures (three in all): state %v, trips %d; want suspect, no trip", cl.State(1), ctr.Trips)
	}
	run(core.Write, targets[3])
	if ctr := cl.Counters(); ctr.Trips != 1 || cl.State(1) != Open {
		t.Fatalf("three consecutive failures: state %v, trips %d; want open, one trip", cl.State(1), ctr.Trips)
	}

	// The brick serves again: the first probe fired (and failed) while the
	// last write's healthy replica was still working; the second closes
	// the breaker and the three missed writes backfill.
	ws[1].failWith = nil
	sim.Run()
	ctr = cl.Counters()
	if cl.State(1) != Healthy || ctr.Probes != 2 || ctr.ProbeFails != 1 {
		t.Fatalf("after the brick recovered: state %v, counters %+v; want healthy after a failed and a good probe", cl.State(1), ctr)
	}
	if ctr.Diverged != 3 || ctr.Backfilled != 3 || ctr.Abandoned != 0 || cl.DivergencePending() != 0 {
		t.Fatalf("divergence log: %+v, %d pending; want 3 diverged, 3 backfilled", ctr, cl.DivergencePending())
	}
	const want = "291a50446381e331"
	if got := dg.String(); got != want {
		t.Errorf("completion digest %s, want %s", got, want)
	}
}

// TestBreakerParkedBrickRecovers: with ProbeTries 2, a crashed brick is
// parked Open after two failed probes with no third armed; recoverBrick
// closes the breaker and the backfill reconciles every missed write.
func TestBreakerParkedBrickRecovers(t *testing.T) {
	sim, cl, _ := newWatchedCluster(t, 3, Options{Replicas: 2, ExtentSectors: 512, Seed: 42, ProbeTries: 2})
	if err := cl.crashBrick(1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	dg := newCompletionDigest()
	failed := 0
	each := func(r core.Result) {
		dg.add(r)
		if r.Failed {
			failed++
		}
	}
	closedLoop(t, cl, rng, 300, 0.5, each)
	sim.Run()
	ctr := cl.Counters()
	if cl.State(1) != Open || ctr.Trips != 1 {
		t.Fatalf("crashed brick: state %v, trips %d; want open, one trip", cl.State(1), ctr.Trips)
	}
	if ctr.Probes != 2 || ctr.ProbeFails != 2 || cl.br[1].probeArmed {
		t.Fatalf("probe budget: %d probes, %d failed, armed %v; want 2, 2, none armed",
			ctr.Probes, ctr.ProbeFails, cl.br[1].probeArmed)
	}
	if ctr.Diverged == 0 {
		t.Fatal("outage writes logged no divergence; test exercised nothing")
	}

	if err := cl.recoverBrick(1); err != nil {
		t.Fatal(err)
	}
	if cl.State(1) != Healthy {
		t.Fatalf("recoverBrick left the breaker %v", cl.State(1))
	}
	closedLoop(t, cl, rng, 100, 0.5, each)
	sim.Run()
	if !cl.Drain(des.Hour) {
		t.Fatal("cluster failed to drain after recoverBrick")
	}
	ctr = cl.Counters()
	if n := cl.DivergencePending(); n != 0 {
		t.Fatalf("%d divergence entries left after drain", n)
	}
	if ctr.Diverged != ctr.Backfilled+ctr.Abandoned || ctr.Abandoned != 0 {
		t.Fatalf("divergence log does not reconcile: Diverged=%d Backfilled=%d Abandoned=%d",
			ctr.Diverged, ctr.Backfilled, ctr.Abandoned)
	}
	if ctr.Probes != 2 {
		t.Errorf("probes = %d after recovery, want still 2", ctr.Probes)
	}
	if failed != 0 {
		t.Errorf("%d requests failed with a replica up", failed)
	}
	const want = "76041f93a4101bdc"
	if got := dg.String(); got != want {
		t.Errorf("completion digest %s, want %s", got, want)
	}
}
