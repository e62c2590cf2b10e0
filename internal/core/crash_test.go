package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/des"
	"repro/internal/layout"
)

// crashArray builds a small mirrored array with the crash model enabled
// (manual Crash/Recover unless the caller sets CrashModel.At).
func crashArray(t testing.TB, durability NVRAMDurability, opts func(*Options)) (*des.Sim, *Array) {
	t.Helper()
	return newArray(t, layout.RAID10(4), "rsatf", func(o *Options) {
		o.DataSectors = 1 << 16
		o.Crash = CrashModel{Enabled: true, Durability: durability}
		if opts != nil {
			opts(o)
		}
	})
}

// crashMidLoad submits n writes, runs the simulation until the array holds
// pending delayed propagation, and crashes it there. Returns how many
// submissions have not yet reported a result.
func crashMidLoad(t *testing.T, sim *des.Sim, a *Array, n int, seed int64, outstanding *int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		off := rng.Int63n(a.DataSectors() - 8)
		*outstanding++
		if err := a.Submit(Write, off, 8, false, func(Result) { *outstanding-- }); err != nil {
			t.Fatal(err)
		}
	}
	for a.NVRAMUsed() == 0 {
		if !sim.Step() {
			t.Fatal("no delayed propagation ever became pending")
		}
	}
	if err := a.Crash(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashModelValidation(t *testing.T) {
	cases := []struct {
		m  CrashModel
		ok bool
	}{
		{CrashModel{}, true},
		{CrashModel{At: -1, RecoverAfter: -1}, true}, // disabled: ignored
		{CrashModel{Enabled: true}, true},
		{CrashModel{Enabled: true, At: des.Second, RecoverAfter: des.Second}, true},
		{CrashModel{Enabled: true, At: -1}, false},
		{CrashModel{Enabled: true, At: des.Second, RecoverAfter: -1}, false},
		{CrashModel{Enabled: true, RecoverAfter: des.Second}, false},
		{CrashModel{Enabled: true, Durability: 7}, false},
	}
	for i, c := range cases {
		if err := c.m.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d: Validate(%+v) = %v, want ok=%v", i, c.m, err, c.ok)
		}
	}
}

func TestCrashStateMachine(t *testing.T) {
	// Disabled model: Crash refuses.
	_, plain := newArray(t, layout.Mirror(2), "satf", nil)
	if err := plain.Crash(); err == nil {
		t.Fatal("Crash succeeded with the model disabled")
	}
	if err := plain.Recover(); err == nil {
		t.Fatal("Recover succeeded on an array that never crashed")
	}

	sim, a := crashArray(t, Volatile, nil)
	if a.Crashed() {
		t.Fatal("array born crashed")
	}
	if err := a.Crash(); err != nil {
		t.Fatal(err)
	}
	if !a.Crashed() {
		t.Fatal("Crashed() false after Crash")
	}
	if err := a.Crash(); err == nil {
		t.Fatal("second Crash succeeded")
	}
	if err := a.Submit(Read, 0, 8, false, nil); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Submit on crashed array: %v, want ErrCrashed", err)
	}
	if err := a.StartScrub(ScrubOptions{}); err == nil {
		t.Fatal("StartScrub succeeded on a crashed array")
	}
	if a.Idle() {
		t.Fatal("crashed array reports idle")
	}
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	if a.Crashed() {
		t.Fatal("Crashed() true after Recover")
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain after recovery")
	}
	rec := a.Recovery()
	if rec.Crashes != 1 || rec.Recoveries != 1 {
		t.Fatalf("counters %+v, want one crash and one recovery", rec)
	}
	_ = sim
}

// TestCrashFailsOutstanding: every request in flight at the instant of the
// power failure reports ErrCrashed exactly once — nothing completes
// successfully after the crash, and nothing dangles.
func TestCrashFailsOutstanding(t *testing.T) {
	sim, a := crashArray(t, Volatile, nil)
	rng := rand.New(rand.NewSource(5))
	outstanding, crashed, other := 0, 0, 0
	for i := 0; i < 60; i++ {
		off := rng.Int63n(a.DataSectors() - 8)
		op := Read
		if i%2 == 0 {
			op = Write
		}
		outstanding++
		if err := a.Submit(op, off, 8, false, func(r Result) {
			outstanding--
			if r.Failed {
				if errors.Is(r.Err, ErrCrashed) {
					crashed++
				} else {
					other++
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Let a handful of requests finish, then pull the plug mid-storm.
	for i := 0; i < 40 && outstanding > 0; i++ {
		if !sim.Step() {
			break
		}
	}
	if err := a.Crash(); err != nil {
		t.Fatal(err)
	}
	for sim.Step() {
	}
	if outstanding != 0 {
		t.Fatalf("%d requests never completed after the crash", outstanding)
	}
	if crashed == 0 {
		t.Fatal("no request reported ErrCrashed")
	}
	if other != 0 {
		t.Fatalf("%d requests failed with something other than ErrCrashed", other)
	}
}

// reconcileRecovery asserts the recovery counter invariants after a full
// drain: every divergent copy found was queued or unrepairable, every
// queued repair resolved, and the array converged to zero divergence.
func reconcileRecovery(t *testing.T, a *Array) RecoveryCounters {
	t.Helper()
	rec := a.Recovery()
	if rec.DivergentFound != rec.RepairsQueued+rec.Unrepairable {
		t.Fatalf("divergence accounting: %+v", rec)
	}
	if rec.RepairsQueued != rec.Repaired+rec.RepairsDropped {
		t.Fatalf("repair accounting: %+v", rec)
	}
	if got := a.DivergentCopies(); got != 0 {
		t.Fatalf("%d divergent copies survive recovery (%+v)", got, rec)
	}
	return rec
}

func TestCrashRecoverVolatile(t *testing.T) {
	sim, a := crashArray(t, Volatile, nil)
	outstanding := 0
	crashMidLoad(t, sim, a, 80, 11, &outstanding)
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain after recovery")
	}
	rec := reconcileRecovery(t, a)
	if rec.LostDelayed == 0 {
		t.Fatalf("volatile NVRAM lost nothing: %+v", rec)
	}
	if rec.Adopted != 0 {
		t.Fatalf("volatile NVRAM adopted %d entries", rec.Adopted)
	}
	// Every lost propagation left a replica behind the committed version;
	// with all mirrors alive the scan must find and repair them, not lose
	// them.
	if rec.DivergentFound == 0 {
		t.Fatalf("lost %d delayed copies but the scan found no divergence", rec.LostDelayed)
	}
	if rec.Unrepairable != 0 {
		t.Fatalf("unrepairable divergence with every mirror alive: %+v", rec)
	}
	if rec.Scanned == 0 || rec.RecoveryTime == 0 {
		t.Fatalf("scan never ran: %+v", rec)
	}
	if outstanding != 0 {
		t.Fatalf("%d submissions never completed", outstanding)
	}
}

func TestCrashRecoverBatteryBacked(t *testing.T) {
	sim, a := crashArray(t, BatteryBacked, nil)
	outstanding := 0
	crashMidLoad(t, sim, a, 80, 11, &outstanding)
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain after recovery")
	}
	rec := reconcileRecovery(t, a)
	if rec.LostDelayed != 0 {
		t.Fatalf("battery-backed NVRAM lost %d delayed copies: %+v", rec.LostDelayed, rec)
	}
	if rec.Adopted == 0 {
		t.Fatalf("battery-backed recovery adopted nothing: %+v", rec)
	}
	if outstanding != 0 {
		t.Fatalf("%d submissions never completed", outstanding)
	}
}

// TestScheduledCrashRecover drives the whole cycle from Options alone (the
// construction-time schedule the chaos engine uses) and checks the run is
// deterministic.
func TestScheduledCrashRecover(t *testing.T) {
	run := func() (RecoveryCounters, des.Time) {
		sim, a := crashArray(t, Volatile, func(o *Options) {
			o.Crash.At = 50 * des.Millisecond
			o.Crash.RecoverAfter = 20 * des.Millisecond
		})
		rng := rand.New(rand.NewSource(3))
		outstanding := 0
		for i := 0; i < 120; i++ {
			off := rng.Int63n(a.DataSectors() - 8)
			outstanding++
			if err := a.Submit(Write, off, 8, false, func(Result) { outstanding-- }); err != nil {
				t.Fatal(err)
			}
		}
		if !a.Drain(des.Hour) {
			t.Fatal("drain")
		}
		if outstanding != 0 {
			t.Fatalf("%d submissions never completed", outstanding)
		}
		return a.Recovery(), sim.Now()
	}
	rec, now := run()
	if rec.Crashes != 1 || rec.Recoveries != 1 {
		t.Fatalf("scheduled cycle did not run: %+v", rec)
	}
	if got := a2digest(rec, now); got != a2digest(run()) {
		t.Fatalf("same seed produced different crash timelines")
	}
}

func a2digest(rec RecoveryCounters, now des.Time) string {
	return fmt.Sprintf("%+v@%v", rec, now)
}

// TestCrashDuringRebuildResumes: a power failure mid-reconstruction must
// not strand the spare — recovery picks the rebuild back up from the
// missing-chunk set and finishes it, and the rebuild counters see one
// rebuild started and done.
func TestCrashDuringRebuildResumes(t *testing.T) {
	sim, a := crashArray(t, Volatile, func(o *Options) {
		o.Spares = 1
		o.RebuildMBps = 4
	})
	outstanding := 0
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		off := rng.Int63n(a.DataSectors() - 8)
		outstanding++
		if err := a.Submit(Write, off, 8, false, func(Result) { outstanding-- }); err != nil {
			t.Fatal(err)
		}
	}
	// Let propagation drain fully before the failure: the crash should
	// interrupt the rebuild, not also destroy pending delayed copies whose
	// only fresh source is the about-to-fail drive (that composition is
	// genuine data loss, exercised by the fuzz harness instead).
	if !a.Drain(des.Hour) {
		t.Fatal("pre-failure drain")
	}
	if outstanding != 0 {
		t.Fatalf("%d writes unacknowledged after drain", outstanding)
	}
	if err := a.FailDrive(0); err != nil {
		t.Fatal(err)
	}
	for !a.RebuildProgress().Active || a.RebuildProgress().Done == 0 {
		if !sim.Step() {
			t.Fatal("rebuild never started")
		}
	}
	before := a.RebuildProgress()
	if err := a.Crash(); err != nil {
		t.Fatal(err)
	}
	if a.RebuildProgress().Active {
		t.Fatal("rebuild still active on a crashed array")
	}
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	after := a.RebuildProgress()
	if !after.Active {
		t.Fatal("rebuild did not resume at recovery")
	}
	if after.Total >= before.Total {
		t.Fatalf("resumed rebuild total %d not smaller than original %d (chunks done pre-crash were forgotten)",
			after.Total, before.Total)
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain after recovery")
	}
	if st := a.DriveState(0); st != DriveHealthy {
		t.Fatalf("rebuilt slot state %v, want healthy", st)
	}
	if lostChunks(a) != 0 {
		t.Fatalf("%d chunks lost with a surviving mirror", lostChunks(a))
	}
	// The resumed rebuild is the one the fail-stop started.
	if fc := a.Faults(); fc.RebuildsStarted != 1 || fc.RebuildsDone != 1 {
		t.Fatalf("RebuildsStarted %d, RebuildsDone %d after one rebuild interrupted and finished; want 1 and 1",
			fc.RebuildsStarted, fc.RebuildsDone)
	}
	reconcileRecovery(t, a)
}

// TestCrashDuringScrubResumes: a scrub pass interrupted by a crash
// restarts at recovery and still finishes its pass.
func TestCrashDuringScrubResumes(t *testing.T) {
	sim, a := crashArray(t, Volatile, nil)
	if n := a.InjectCorruption(8, 5); n != 8 {
		t.Fatalf("injected %d of 8", n)
	}
	if err := a.StartScrub(ScrubOptions{MBps: 16}); err != nil {
		t.Fatal(err)
	}
	for a.ScrubProgress().Done == 0 {
		if !sim.Step() {
			t.Fatal("scrub never started")
		}
	}
	if err := a.Crash(); err != nil {
		t.Fatal(err)
	}
	if a.ScrubProgress().Active {
		t.Fatal("scrub still active on a crashed array")
	}
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	if !a.ScrubProgress().Active {
		t.Fatal("scrub did not restart at recovery")
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain after recovery")
	}
	if got := a.ScrubCounters().Passes; got != 1 {
		t.Fatalf("completed passes = %d, want 1", got)
	}
	if got := a.CorruptCopies(); got != 0 {
		t.Fatalf("%d corrupt copies survive scrub + recovery scan", got)
	}
	reconcileRecovery(t, a)
}

// TestBatchThenCrash: SubmitBatchErrs partial-failure semantics, and the
// regression for batch-then-crash ordering — every op the batch queued
// reports ErrCrashed exactly once, ops the batch rejected never run their
// Done, and the completion order is deterministic.
func TestBatchThenCrash(t *testing.T) {
	run := func() (order []int, submitted int, errs []error) {
		sim, a := crashArray(t, Volatile, nil)
		ops := make([]BatchOp, 12)
		for i := range ops {
			i := i
			off := int64(i) * 128
			if i == 5 {
				off = a.DataSectors() + 1 // invalid: must be rejected, Done never run
			}
			ops[i] = BatchOp{Op: Write, Off: off, Count: 8, Done: func(r Result) {
				if !r.Failed || !errors.Is(r.Err, ErrCrashed) {
					t.Errorf("op %d: result %+v, want ErrCrashed", i, r)
				}
				order = append(order, i)
			}}
		}
		errs, submitted = a.SubmitBatchErrs(ops)
		if err := a.Crash(); err != nil {
			t.Fatal(err)
		}
		for sim.Step() {
		}
		return
	}
	order, submitted, errs := run()
	if submitted != 11 {
		t.Fatalf("submitted %d of 11 valid ops", submitted)
	}
	if errs == nil || errs[5] == nil {
		t.Fatalf("invalid op produced no slot error: %v", errs)
	}
	for i, e := range errs {
		if i != 5 && e != nil {
			t.Fatalf("valid op %d rejected: %v", i, e)
		}
	}
	if len(order) != 11 {
		t.Fatalf("%d of 11 queued ops completed after the crash", len(order))
	}
	for _, i := range order {
		if i == 5 {
			t.Fatal("rejected op ran its Done")
		}
	}
	order2, _, _ := run()
	if fmt.Sprint(order) != fmt.Sprint(order2) {
		t.Fatalf("batch-then-crash completion order not deterministic:\n%v\n%v", order, order2)
	}
	// First-error-stops SubmitBatch still reports the prefix count.
	_, b := crashArray(t, Volatile, nil)
	ops := []BatchOp{
		{Op: Write, Off: 0, Count: 8},
		{Op: Write, Off: b.DataSectors() + 1, Count: 8},
		{Op: Write, Off: 256, Count: 8},
	}
	n, err := b.SubmitBatch(ops)
	if n != 1 || err == nil {
		t.Fatalf("SubmitBatch = (%d, %v), want (1, error)", n, err)
	}
}

// TestCrashDuringRecoveryScan: a second power failure arriving while the
// first recovery's divergence scan is mid-flight — with repairs queued but
// unresolved — must not leak those repairs (every queued repair still ends
// in Repaired or RepairsDropped) and must leave the cumulative
// RecoveryCounters reconciling after the second recovery finishes. The
// copies whose repairs the crash destroyed are badKnown already, so the
// second scan's re-queue path, not fresh condemnation, has to find them.
func TestCrashDuringRecoveryScan(t *testing.T) {
	sim, a := crashArray(t, Volatile, nil)
	// Slow the scan so the second crash lands mid-flight.
	tn := a.Tuning()
	tn.RecoveryScanMBps = 2
	if err := a.SetTuning(tn); err != nil {
		t.Fatal(err)
	}
	outstanding := 0
	crashMidLoad(t, sim, a, 80, 11, &outstanding)
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	// Run until the scan is mid-flight with repairs queued but not yet
	// resolved — the window where a crash can strand them.
	for {
		rec := a.Recovery()
		if recoveryScanActive(a) && rec.RepairsQueued > rec.Repaired+rec.RepairsDropped {
			break
		}
		if !sim.Step() {
			t.Fatal("recovery scan finished without a pending-repair window")
		}
	}
	if err := a.Crash(); err != nil {
		t.Fatal(err)
	}
	if recoveryScanActive(a) {
		t.Fatal("recovery scan still active on a crashed array")
	}
	// The crash sweep must resolve every repair it destroyed on the spot:
	// anything queued and unresolved here has leaked.
	rec := a.Recovery()
	if rec.RepairsQueued != rec.Repaired+rec.RepairsDropped {
		t.Fatalf("crash mid-scan leaked queued repairs: %+v", rec)
	}
	if rec.RepairsDropped == 0 {
		t.Fatalf("second crash dropped no repairs — the test missed the window: %+v", rec)
	}
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain after second recovery")
	}
	rec = reconcileRecovery(t, a)
	if rec.Crashes != 2 || rec.Recoveries != 2 {
		t.Fatalf("cycle counters %+v, want two crashes and two recoveries", rec)
	}
	// The re-queue path ran: divergence found exceeds what one scan could
	// condemn fresh, because dropped repairs were found again.
	if rec.RepairsQueued <= rec.RepairsDropped {
		t.Fatalf("dropped repairs were never re-queued: %+v", rec)
	}
	if outstanding != 0 {
		t.Fatalf("%d submissions never completed", outstanding)
	}
}

// TestCrashWhileCrashedScrubRejected: crash/recover twice in a row to
// exercise cumulative counters.
func TestRepeatedCrashCycles(t *testing.T) {
	sim, a := crashArray(t, Volatile, nil)
	for cycle := 1; cycle <= 3; cycle++ {
		outstanding := 0
		crashMidLoad(t, sim, a, 40, int64(cycle), &outstanding)
		if err := a.Recover(); err != nil {
			t.Fatal(err)
		}
		if !a.Drain(des.Hour) {
			t.Fatalf("cycle %d: drain failed", cycle)
		}
		rec := reconcileRecovery(t, a)
		if rec.Crashes != int64(cycle) || rec.Recoveries != int64(cycle) {
			t.Fatalf("cycle %d: counters %+v", cycle, rec)
		}
	}
}
