package cluster

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/layout"
)

// newBrick builds one small mirrored test array on sim.
func newBrick(t *testing.T, sim *des.Sim, seed int64) *core.Array {
	t.Helper()
	a, err := core.New(sim, core.Options{
		Config: layout.Config{Ds: 1, Dr: 1, Dm: 2}, Seed: seed,
		DataSectors: 1 << 13,
		Crash:       core.CrashModel{Enabled: true, Durability: core.BatteryBacked},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// newTestCluster builds a colocated cluster of n bricks.
func newTestCluster(t *testing.T, n int, opts Options) (*des.Sim, *Cluster) {
	t.Helper()
	sim := des.New()
	bricks := make([]core.Volume, n)
	for i := range bricks {
		bricks[i] = newBrick(t, sim, int64(i+1))
	}
	c, err := New(sim, bricks, testOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	return sim, c
}

// crashBrick power-fails one brick without telling the router: the
// breaker must discover the outage from failing traffic.
func (c *Cluster) crashBrick(b int) error { return c.bs[b].Crash() }

// recoverBrick powers one brick back on and closes its breaker directly,
// the explicit-admin path (the probe path discovers recovery on its own).
func (c *Cluster) recoverBrick(b int) error {
	if err := c.bs[b].Recover(); err != nil {
		return err
	}
	c.closeBreaker(b)
	return nil
}

// replicas reports the bricks currently holding extent e, in placement
// order (unplaced replicas omitted).
func (c *Cluster) replicas(e int64) []int {
	var out []int
	for k := 0; k < c.pm.r; k++ {
		if l := c.pm.locOf(e, k); l.brick >= 0 {
			out = append(out, int(l.brick))
		}
	}
	return out
}

// testOptions fills the test clusters' extent size and placement seed.
func testOptions(opts Options) Options {
	if opts.ExtentSectors == 0 {
		opts.ExtentSectors = 512
	}
	if opts.Seed == 0 {
		opts.Seed = 42
	}
	return opts
}

func TestPlacementDistinctAndDeterministic(t *testing.T) {
	caps := []int64{1 << 13, 1 << 13, 1 << 14, 1 << 13}
	m1, err := buildExtentMap(caps, 2, 512, 1.0/16, 7)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := buildExtentMap(caps, 2, 512, 1.0/16, 7)
	if err != nil {
		t.Fatal(err)
	}
	perBrick := make([]int, len(caps))
	for e := int64(0); e < m1.extents; e++ {
		seen := map[int32]bool{}
		for k := 0; k < m1.r; k++ {
			l1, l2 := m1.locOf(e, k), m2.locOf(e, k)
			if l1 != l2 {
				t.Fatalf("extent %d replica %d: placement not deterministic (%v vs %v)", e, k, l1, l2)
			}
			if l1.brick < 0 {
				t.Fatalf("extent %d replica %d unplaced", e, k)
			}
			if seen[l1.brick] {
				t.Fatalf("extent %d has two replicas on brick %d", e, l1.brick)
			}
			seen[l1.brick] = true
			perBrick[l1.brick]++
			if off := m1.brickOff(l1, 0); off < 0 || off+512 > caps[l1.brick] {
				t.Fatalf("extent %d replica %d: offset %d outside brick %d", e, k, off, l1.brick)
			}
		}
	}
	// Weighted rendezvous: the double-capacity brick should carry roughly
	// double the replicas of a single-capacity one.
	ratio := float64(perBrick[2]) / float64(perBrick[0])
	if ratio < 1.4 || ratio > 2.8 {
		t.Errorf("heterogeneous weighting off: perBrick=%v (brick 2 has 2x capacity, ratio %.2f)", perBrick, ratio)
	}
	// Distinct seeds move placements.
	m3, err := buildExtentMap(caps, 2, 512, 1.0/16, 8)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for e := int64(0); e < m1.extents && e < m3.extents; e++ {
		if m1.locOf(e, 0) != m3.locOf(e, 0) {
			moved++
		}
	}
	if moved == 0 {
		t.Error("changing the seed moved no placements")
	}
}

func TestPlacementOptionErrors(t *testing.T) {
	caps := []int64{1 << 13, 1 << 13}
	if _, err := buildExtentMap(caps, 3, 512, 0, 1); err == nil {
		t.Error("3 replicas over 2 bricks accepted")
	}
	if _, err := buildExtentMap(caps, 5, 512, 0, 1); err == nil {
		t.Error("replicas > maxReplicas accepted")
	}
	if _, err := buildExtentMap([]int64{256}, 1, 512, 0, 1); err == nil {
		t.Error("brick smaller than one extent accepted")
	}
}

// digestWorkload runs a fixed seeded closed loop against a volume and
// fingerprints every completion.
func digestWorkload(t *testing.T, sim *des.Sim, v core.Volume, ios int, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	digest := ""
	finished := 0
	var issue func()
	issue = func() {
		if ios == 0 {
			return
		}
		ios--
		off := rng.Int63n(v.DataSectors() - 8)
		op := core.Read
		if rng.Float64() < 0.4 {
			op = core.Write
		}
		submit := sim.Now()
		err := v.Submit(op, off, 8, false, func(r core.Result) {
			finished++
			digest += r.Op.String() + ":" + r.Latency().String() + ";"
			issue()
		})
		if err != nil {
			t.Fatalf("submit at %v: %v", submit, err)
		}
	}
	for i := 0; i < 4; i++ {
		issue()
	}
	sim.Run()
	return digest
}

// TestPassthroughIdentical: a one-brick R=1 cluster must be byte-identical
// to the bare array underneath — replication off changes nothing.
func TestPassthroughIdentical(t *testing.T) {
	simA := des.New()
	direct := newBrick(t, simA, 1)
	want := digestWorkload(t, simA, direct, 400, 99)

	simB := des.New()
	brick := newBrick(t, simB, 1)
	cl, err := New(simB, []core.Volume{brick}, Options{Replicas: 1, ExtentSectors: 512, Seed: 42, Headroom: -1})
	if err != nil {
		t.Fatal(err)
	}
	// The identity map requires cluster offsets to be brick offsets; with
	// one brick, R=1, and zero headroom, slot e == extent e and the volume
	// sizes match, so the seeded workloads are address-identical.
	if cl.DataSectors() != direct.DataSectors() {
		t.Fatalf("volume sizes differ: cluster %d vs array %d", cl.DataSectors(), direct.DataSectors())
	}
	got := digestWorkload(t, simB, cl, 400, 99)
	if got != want {
		t.Fatalf("one-brick R=1 cluster diverged from the bare array:\ndirect:  %.120s\ncluster: %.120s", want, got)
	}
	if c := cl.Counters(); c.ReadFailovers != 0 || c.Diverged != 0 || c.Trips != 0 {
		t.Fatalf("healthy passthrough moved failure counters: %+v", c)
	}
}

// TestReadFailoverDuringOutage: with R=2, a brick crash mid-workload must
// be invisible to readers — every read completes, none fail.
func TestReadFailoverDuringOutage(t *testing.T) {
	sim, cl := newTestCluster(t, 3, Options{Replicas: 2})
	rng := rand.New(rand.NewSource(5))
	ios := 600
	finished, failed := 0, 0
	var issue func()
	issue = func() {
		if ios == 0 {
			return
		}
		ios--
		off := rng.Int63n(cl.DataSectors() - 8)
		if err := cl.Submit(core.Read, off, 8, false, func(r core.Result) {
			finished++
			if r.Failed {
				failed++
			}
			issue()
		}); err != nil {
			t.Fatalf("synchronous rejection with a replica alive: %v", err)
		}
	}
	sim.At(2*des.Millisecond, func() {
		if err := cl.crashBrick(1); err != nil {
			t.Errorf("crash: %v", err)
		}
	})
	sim.At(40*des.Millisecond, func() {
		if err := cl.bs[1].Recover(); err != nil {
			t.Errorf("recover: %v", err)
		}
	})
	for i := 0; i < 4; i++ {
		issue()
	}
	sim.Run()
	if finished != 600 {
		t.Fatalf("finished %d/600", finished)
	}
	if failed != 0 {
		t.Fatalf("%d reads failed despite a surviving replica", failed)
	}
	ctr := cl.Counters()
	if ctr.ReadFailovers == 0 {
		t.Error("outage caused no failovers; test exercised nothing")
	}
	if ctr.Trips == 0 {
		t.Error("breaker never tripped")
	}
	if cl.State(1) != Healthy {
		t.Errorf("brick 1 state %v after recovery (probe did not close the breaker)", cl.State(1))
	}
	if ctr.Probes == 0 {
		t.Error("no half-open probes issued")
	}
}

// TestWriteDivergenceBackfillReconciles: writes during an outage diverge,
// recovery backfills them, and the counters reconcile exactly.
func TestWriteDivergenceBackfillReconciles(t *testing.T) {
	sim, cl := newTestCluster(t, 3, Options{Replicas: 2, BackfillMBps: 512})
	rng := rand.New(rand.NewSource(6))
	ios := 500
	finished, failed := 0, 0
	var issue func()
	issue = func() {
		if ios == 0 {
			return
		}
		ios--
		off := rng.Int63n(cl.DataSectors() - 8)
		if err := cl.Submit(core.Write, off, 8, false, func(r core.Result) {
			finished++
			if r.Failed {
				failed++
			}
			issue()
		}); err != nil {
			t.Fatalf("synchronous write rejection with a replica alive: %v", err)
		}
	}
	sim.At(2*des.Millisecond, func() { _ = cl.crashBrick(2) })
	sim.At(30*des.Millisecond, func() { _ = cl.bs[2].Recover() })
	for i := 0; i < 4; i++ {
		issue()
	}
	sim.Run()
	if finished != 500 || failed != 0 {
		t.Fatalf("finished %d/500, failed %d (quorum writes must absorb the outage)", finished, failed)
	}
	if !cl.Drain(des.Hour) {
		t.Fatal("cluster failed to drain")
	}
	ctr := cl.Counters()
	if ctr.Diverged == 0 {
		t.Fatal("outage writes logged no divergence; test exercised nothing")
	}
	if ctr.Diverged != ctr.Backfilled+ctr.Abandoned {
		t.Fatalf("divergence log does not reconcile: Diverged=%d Backfilled=%d Abandoned=%d",
			ctr.Diverged, ctr.Backfilled, ctr.Abandoned)
	}
	if ctr.Abandoned != 0 {
		t.Errorf("recovered outage abandoned %d entries", ctr.Abandoned)
	}
	if n := cl.DivergencePending(); n != 0 {
		t.Fatalf("%d divergence entries left after drain", n)
	}
}

// TestDoubleCrashDuringBackfill: a second crash while backfill is copying
// parks the log intact; the second recovery finishes the job and the
// counters still reconcile.
func TestDoubleCrashDuringBackfill(t *testing.T) {
	// Slow backfill so the second crash reliably lands mid-copy.
	sim, cl := newTestCluster(t, 3, Options{Replicas: 2, BackfillMBps: 8})
	rng := rand.New(rand.NewSource(7))
	ios := 400
	failed := 0
	var issue func()
	issue = func() {
		if ios == 0 {
			return
		}
		ios--
		off := rng.Int63n(cl.DataSectors() - 8)
		if err := cl.Submit(core.Write, off, 8, false, func(r core.Result) {
			if r.Failed {
				failed++
			}
			issue()
		}); err != nil {
			t.Fatalf("synchronous rejection: %v", err)
		}
	}
	sim.At(2*des.Millisecond, func() { _ = cl.crashBrick(0) })
	sim.At(20*des.Millisecond, func() { _ = cl.bs[0].Recover() })
	// Backfill at 8 MB/s needs 32ms per 512-sector extent; crash again
	// while it is mid-queue, then recover for good.
	sim.At(80*des.Millisecond, func() {
		if cl.DivergencePending() == 0 {
			t.Error("backfill already done at second crash; slow it down")
		}
		_ = cl.crashBrick(0)
	})
	sim.At(120*des.Millisecond, func() { _ = cl.bs[0].Recover() })
	for i := 0; i < 4; i++ {
		issue()
	}
	sim.Run()
	if failed != 0 {
		t.Fatalf("%d writes failed despite quorum", failed)
	}
	if !cl.Drain(des.Hour) {
		t.Fatal("cluster failed to drain after double crash")
	}
	ctr := cl.Counters()
	if ctr.Diverged != ctr.Backfilled+ctr.Abandoned {
		t.Fatalf("double crash broke reconciliation: Diverged=%d Backfilled=%d Abandoned=%d",
			ctr.Diverged, ctr.Backfilled, ctr.Abandoned)
	}
	if cl.DivergencePending() != 0 {
		t.Fatal("divergence entries left after final drain")
	}
	if ctr.Trips < 2 {
		t.Errorf("expected two breaker trips, got %d", ctr.Trips)
	}
}

// TestDeclareDead: a dead brick's log is abandoned, its extents are
// adopted by survivors and re-replicated, and reads keep working with the
// brick gone for good.
func TestDeclareDead(t *testing.T) {
	sim, cl := newTestCluster(t, 3, Options{Replicas: 2, BackfillMBps: 512, Headroom: 0.4})
	rng := rand.New(rand.NewSource(8))
	ios := 300
	failed := 0
	var issue func()
	issue = func() {
		if ios == 0 {
			return
		}
		ios--
		off := rng.Int63n(cl.DataSectors() - 8)
		op := core.Read
		if rng.Float64() < 0.5 {
			op = core.Write
		}
		if err := cl.Submit(op, off, 8, false, func(r core.Result) {
			if r.Failed {
				failed++
			}
			issue()
		}); err != nil {
			t.Fatalf("synchronous rejection: %v", err)
		}
	}
	sim.At(2*des.Millisecond, func() { _ = cl.crashBrick(1) })
	sim.At(20*des.Millisecond, func() {
		if err := cl.DeclareDead(1); err != nil {
			t.Errorf("DeclareDead: %v", err)
		}
		if err := cl.DeclareDead(1); err == nil {
			t.Error("second DeclareDead accepted")
		}
	})
	for i := 0; i < 4; i++ {
		issue()
	}
	sim.Run()
	if failed != 0 {
		t.Fatalf("%d requests failed despite replication", failed)
	}
	if !cl.Drain(des.Hour) {
		t.Fatal("cluster failed to drain after DeclareDead")
	}
	ctr := cl.Counters()
	if ctr.Adopted == 0 {
		t.Fatal("no replicas adopted from the dead brick")
	}
	if ctr.Diverged != ctr.Backfilled+ctr.Abandoned {
		t.Fatalf("DeclareDead broke reconciliation: Diverged=%d Backfilled=%d Abandoned=%d",
			ctr.Diverged, ctr.Backfilled, ctr.Abandoned)
	}
	if cl.DivergencePending() != 0 {
		t.Fatal("divergence entries left after adoption backfill")
	}
	// Every extent must have left the dead brick.
	for e := int64(0); e < cl.pm.extents; e++ {
		for _, b := range cl.replicas(e) {
			if b == 1 {
				t.Fatalf("extent %d still placed on the dead brick", e)
			}
		}
	}
	// And the cluster still serves reads with brick 1 dark.
	done := false
	if err := cl.Submit(core.Read, 0, 8, false, func(r core.Result) {
		done = true
		if r.Failed {
			t.Errorf("post-death read failed: %v", r.Err)
		}
	}); err != nil {
		t.Fatalf("post-death read rejected: %v", err)
	}
	sim.Run()
	if !done {
		t.Fatal("post-death read never completed")
	}
}

// TestAllReplicasDownRejectsSync: once the router knows every replica of
// an extent is down, Submit rejects synchronously with ErrCrashed (the
// all-replicas-down 503); with any replica alive it never does.
func TestAllReplicasDownRejectsSync(t *testing.T) {
	// Everything runs on the virtual clock: recovery lands while the
	// half-open probe budget is still live.
	sim, cl := newTestCluster(t, 2, Options{Replicas: 2})
	sim.At(0, func() {
		_ = cl.crashBrick(0)
		_ = cl.crashBrick(1)
	})
	// The router has not seen a failure yet, so the first submission goes
	// out, fails everywhere (tripping both breakers inline), and completes
	// as a failed result.
	completed := false
	sim.At(des.Microsecond, func() {
		if err := cl.Submit(core.Read, 0, 8, false, func(r core.Result) {
			completed = true
			if !r.Failed || !errors.Is(r.Err, core.ErrCrashed) {
				t.Errorf("full-outage read completed as %+v", r)
			}
		}); err != nil {
			t.Fatalf("first submission rejected before the breaker could know: %v", err)
		}
	})
	// With both breakers Open, rejection is synchronous: the 503 semantic.
	sim.At(500*des.Microsecond, func() {
		if !completed {
			t.Fatal("first submission never resolved")
		}
		if err := cl.Submit(core.Read, 0, 8, false, nil); !errors.Is(err, core.ErrCrashed) {
			t.Fatalf("full outage returned %v, want ErrCrashed", err)
		}
		if cl.Counters().AllDown == 0 {
			t.Error("AllDown counter did not move")
		}
	})
	// One brick back: a half-open probe must rediscover it with no router
	// hint, and reads flow again.
	sim.At(des.Millisecond, func() { _ = cl.bs[0].Recover() })
	ok := false
	sim.At(80*des.Millisecond, func() {
		if got := cl.State(0); got != Healthy {
			t.Fatalf("brick 0 %v after recovery; probe did not close the breaker", got)
		}
		if err := cl.Submit(core.Read, 0, 8, false, func(r core.Result) { ok = !r.Failed }); err != nil {
			t.Fatalf("submission rejected after probe recovery: %v", err)
		}
	})
	sim.Run()
	if !ok {
		t.Fatal("read failed after probe recovery")
	}
}

// TestVolumeSurface covers the aggregate core.Volume methods, and that a
// sharded cluster refuses Crash, Recover and Drain.
func TestVolumeSurface(t *testing.T) {
	t.Run("colocated", func(t *testing.T) {
		sim, cl := newTestCluster(t, 3, Options{Replicas: 2})
		if cl.Disks() != 6 {
			t.Errorf("Disks() = %d, want 6", cl.Disks())
		}
		if cl.Sim() != sim {
			t.Error("Sim() is not the router sim")
		}
		if cl.DataSectors() <= 0 || cl.DataSectors()%512 != 0 {
			t.Errorf("DataSectors() = %d", cl.DataSectors())
		}
		if cl.Crashed() {
			t.Error("fresh cluster reports crashed")
		}
		if !cl.Idle() {
			t.Error("fresh cluster not idle")
		}
		tun := cl.Tuning()
		tun.MaxQueueDepth = 64
		if err := cl.SetTuning(tun); err != nil {
			t.Fatalf("SetTuning: %v", err)
		}
		for i := 0; i < len(cl.bs); i++ {
			if got := cl.bs[i].Tuning().MaxQueueDepth; got != 64 {
				t.Errorf("brick %d MaxQueueDepth = %d after fan-out", i, got)
			}
		}
		if err := cl.Crash(); err != nil {
			t.Fatalf("Crash: %v", err)
		}
		if !cl.Crashed() {
			t.Error("Crashed() false after Crash()")
		}
		if rec := cl.Recovery(); rec.Crashes != 3 {
			t.Errorf("Recovery().Crashes = %d, want 3", rec.Crashes)
		}
		if err := cl.Recover(); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if cl.Crashed() {
			t.Error("Crashed() true after Recover()")
		}
		if !cl.Drain(des.Hour) {
			t.Fatal("Drain failed after crash cycle")
		}
	})
	t.Run("sharded", func(t *testing.T) {
		// A sharded cluster refuses the whole-cluster calls: its bricks crash
		// and recover on their own shards, and the caller owns the engine.
		_, cl := newShardedCluster(t, 3, 1, Options{Replicas: 2})
		if err := cl.Crash(); err == nil {
			t.Error("Crash on a sharded cluster returned no error")
		}
		if err := cl.Recover(); err == nil {
			t.Error("Recover on a sharded cluster returned no error")
		}
		if cl.Crashed() || cl.Recovery().Crashes != 0 {
			t.Error("a refused Crash reached the bricks")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Drain on a sharded cluster did not panic")
				}
			}()
			cl.Drain(des.Hour)
		}()
	})
}

// TestBatchSubmit covers the batch entry points, including index-aligned
// errors once a full outage is known.
func TestBatchSubmit(t *testing.T) {
	sim, cl := newTestCluster(t, 2, Options{Replicas: 2})
	n := 0
	ops := []core.BatchOp{
		{Op: core.Read, Off: 0, Count: 8, Done: func(core.Result) { n++ }},
		{Op: core.Write, Off: 600, Count: 8, Done: func(core.Result) { n++ }},
		{Op: core.Read, Off: 1200, Count: 8, Done: func(core.Result) { n++ }},
	}
	if got, err := cl.SubmitBatch(ops); err != nil || got != 3 {
		t.Fatalf("SubmitBatch = %d, %v", got, err)
	}
	sim.Run()
	if n != 3 {
		t.Fatalf("batch completed %d/3", n)
	}
	sim.At(sim.Now(), func() { _ = cl.Crash() })
	sim.Run()
	errs, ok := cl.SubmitBatchErrs(ops)
	if ok != 0 || errs == nil {
		t.Fatalf("SubmitBatchErrs on a dead cluster: ok=%d errs=%v", ok, errs)
	}
	for i, e := range errs {
		if !errors.Is(e, core.ErrCrashed) {
			t.Errorf("op %d error %v, want ErrCrashed", i, e)
		}
	}
}

// TestRangeValidation: out-of-range requests are rejected with a plain
// error (the 400 path), not ErrCrashed.
func TestRangeValidation(t *testing.T) {
	_, cl := newTestCluster(t, 2, Options{Replicas: 2})
	if err := cl.Submit(core.Read, -1, 8, false, nil); err == nil || errors.Is(err, core.ErrCrashed) {
		t.Errorf("negative offset: %v", err)
	}
	if err := cl.Submit(core.Read, cl.DataSectors()-4, 8, false, nil); err == nil || errors.Is(err, core.ErrCrashed) {
		t.Errorf("overrun: %v", err)
	}
	if err := cl.Submit(core.Read, 0, 0, false, nil); err == nil {
		t.Errorf("zero count accepted")
	}
}

// TestMultiExtentRequest spans several extents (exercising the piece spill
// path) and must complete as one logical request.
func TestMultiExtentRequest(t *testing.T) {
	sim, cl := newTestCluster(t, 3, Options{Replicas: 2, ExtentSectors: 64})
	var got *core.Result
	count := 64 * 3 // four pieces: tail of e0 through head of e3
	if err := cl.Submit(core.Write, 32, count, false, func(r core.Result) { got = &r }); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if got == nil {
		t.Fatal("multi-extent write never completed")
	}
	if got.Failed || got.Count != count {
		t.Fatalf("multi-extent write: %+v", *got)
	}
}

// presetBrick reports preset counters in place of its array's own.
type presetBrick struct {
	*core.Array
	f core.FaultCounters
	h core.HedgeCounters
	s core.ShedCounters
	r core.RecoveryCounters
}

func (b *presetBrick) Faults() core.FaultCounters      { return b.f }
func (b *presetBrick) Hedges() core.HedgeCounters      { return b.h }
func (b *presetBrick) Sheds() core.ShedCounters        { return b.s }
func (b *presetBrick) Recovery() core.RecoveryCounters { return b.r }

// fillDistinct sets field i of the counter struct at ptr to base+i+1.
func fillDistinct(t *testing.T, ptr any, base int64) {
	t.Helper()
	v := reflect.ValueOf(ptr).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(base + int64(i) + 1)
		case reflect.Float64:
			f.SetFloat(float64(base + int64(i) + 1))
		default:
			t.Fatalf("%s.%s is %v; extend fillDistinct", v.Type(), v.Type().Field(i).Name, f.Kind())
		}
	}
}

// number reads an Int64 or Float64 counter field.
func number(v reflect.Value) float64 {
	if v.Kind() == reflect.Float64 {
		return v.Float()
	}
	return float64(v.Int())
}

// TestAggregateCountersSumEveryField: every field of the cluster's summed
// brick counters must equal the sum over the bricks, so a field added to a
// core counter struct cannot be left out of the aggregate.
func TestAggregateCountersSumEveryField(t *testing.T) {
	sim := des.New()
	bricks := make([]*presetBrick, 3)
	vols := make([]core.Volume, len(bricks))
	for i := range bricks {
		b := &presetBrick{Array: newBrick(t, sim, int64(i+1))}
		base := int64(1000 * (i + 1))
		fillDistinct(t, &b.f, base)
		fillDistinct(t, &b.h, base)
		fillDistinct(t, &b.s, base)
		fillDistinct(t, &b.r, base)
		bricks[i], vols[i] = b, b
	}
	cl, err := New(sim, vols, Options{Replicas: 2, ExtentSectors: 512, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, got any, of func(b *presetBrick) any) {
		g := reflect.ValueOf(got)
		for i := 0; i < g.NumField(); i++ {
			var want float64
			for _, b := range bricks {
				want += number(reflect.ValueOf(of(b)).Field(i))
			}
			if got := number(g.Field(i)); got != want {
				t.Errorf("%s().%s = %v, want %v (the sum over bricks)", name, g.Type().Field(i).Name, got, want)
			}
		}
	}
	check("Faults", cl.Faults(), func(b *presetBrick) any { return b.f })
	check("Hedges", cl.Hedges(), func(b *presetBrick) any { return b.h })
	check("Sheds", cl.Sheds(), func(b *presetBrick) any { return b.s })
	check("Recovery", cl.Recovery(), func(b *presetBrick) any { return b.r })
}
