package core

import (
	"math/rand"
	"testing"

	"repro/internal/des"
	"repro/internal/layout"
)

// A 2-way mirror survives a single drive failure: reads and writes keep
// completing on the survivor.
func TestMirrorSurvivesSingleFailure(t *testing.T) {
	_, a := newArray(t, layout.Mirror(2), "satf", nil)
	a.FailDrive(0)
	if a.Alive(0) || !a.Alive(1) {
		t.Fatal("alive state wrong after FailDrive(0)")
	}
	rng := rand.New(rand.NewSource(1))
	ok, failed := 0, 0
	for i := 0; i < 60; i++ {
		off := rng.Int63n(a.DataSectors() - 8)
		op := Read
		if i%3 == 0 {
			op = Write
		}
		if err := a.Submit(op, off, 8, false, func(r Result) {
			if r.Failed {
				failed++
			} else {
				ok++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	if failed != 0 || ok != 60 {
		t.Fatalf("ok=%d failed=%d on a degraded mirror, want all 60 ok", ok, failed)
	}
	// Everything ran on the survivor.
	if a.Commands(0) != 0 {
		t.Fatalf("failed drive executed %d commands", a.Commands(0))
	}
}

// Striping has no redundancy: after a failure, requests touching the dead
// disk fail and the rest complete.
func TestStripingLosesDataOnFailure(t *testing.T) {
	_, a := newArray(t, layout.Striping(2), "satf", nil)
	a.FailDrive(0)
	unit := int64(a.Layout().StripeUnit())
	results := map[int64]bool{} // chunk -> failed
	for chunk := int64(0); chunk < 8; chunk++ {
		off := chunk * unit
		chunk := chunk
		if err := a.Submit(Read, off, 8, false, func(r Result) {
			results[chunk] = r.Failed
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	for chunk, failed := range results {
		onDead := chunk%2 == 0 // position 0 holds even chunks
		if failed != onDead {
			t.Errorf("chunk %d: failed=%v, want %v", chunk, failed, onDead)
		}
	}
}

// Queued duplicate reads survive the failure of one of their candidate
// drives: the claim machinery reroutes them to the survivors.
func TestQueuedDuplicatesRerouteOnFailure(t *testing.T) {
	_, a := newArray(t, layout.Mirror(3), "satf", nil)
	rng := rand.New(rand.NewSource(2))
	ok := 0
	// Saturate so requests queue (and duplicate) before we pull a drive.
	for i := 0; i < 40; i++ {
		off := rng.Int63n(a.DataSectors() - 8)
		if err := a.Submit(Read, off, 8, false, func(r Result) {
			if !r.Failed {
				ok++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	a.FailDrive(1)
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	if ok != 40 {
		t.Fatalf("%d of 40 reads survived a mid-queue failure on a 3-way mirror", ok)
	}
}

// Delayed-write propagation to a failed drive is dropped and the NVRAM
// table still drains; the surviving mirror keeps serving the data.
func TestPropagationDroppedOnFailure(t *testing.T) {
	sim, a := newArray(t, layout.Config{Ds: 1, Dr: 2, Dm: 2}, "rsatf", nil)
	off := int64(4096)
	wrote := false
	if err := a.Submit(Write, off, 8, false, func(Result) { wrote = true }); err != nil {
		t.Fatal(err)
	}
	for !wrote {
		sim.Step()
	}
	// Propagation to the other mirror is pending; kill that mirror.
	if a.NVRAMUsed() == 0 {
		t.Skip("propagation already finished")
	}
	// Find a drive with pending delayed work and fail it.
	failedOne := false
	for i := 0; i < a.Disks(); i++ {
		if len(a.drives[i].delayed) > 0 {
			a.FailDrive(i)
			failedOne = true
			break
		}
	}
	if !failedOne {
		t.Skip("no pending per-drive propagation to drop")
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	if a.NVRAMUsed() != 0 {
		t.Fatalf("NVRAM = %d after failure drain", a.NVRAMUsed())
	}
	// The data is still readable.
	got := false
	var failed bool
	a.Submit(Read, off, 8, false, func(r Result) { got, failed = true, r.Failed })
	if !a.Drain(des.Hour) || !got || failed {
		t.Fatalf("read after degraded propagation: got=%v failed=%v", got, failed)
	}
}

// A degraded mirror is slower than a healthy one: all load lands on the
// survivor.
func TestDegradedMirrorSlower(t *testing.T) {
	measure := func(fail bool) des.Time {
		sim, a := newArray(t, layout.Mirror(2), "satf", nil)
		if fail {
			a.FailDrive(1)
		}
		return runRandomReads(t, sim, a, 200, 8, 5)
	}
	healthy := measure(false)
	degraded := measure(true)
	if degraded <= healthy {
		t.Fatalf("degraded mean %v not above healthy %v", degraded, healthy)
	}
}

// Failing a drive twice is a no-op, and failing every drive makes all
// requests fail cleanly rather than hang.
func TestTotalFailure(t *testing.T) {
	_, a := newArray(t, layout.RAID10(4), "satf", nil)
	for i := 0; i < a.Disks(); i++ {
		a.FailDrive(i)
		a.FailDrive(i)
	}
	results := 0
	failed := 0
	for i := 0; i < 10; i++ {
		if err := a.Submit(Read, int64(i)*1024, 8, false, func(r Result) {
			results++
			if r.Failed {
				failed++
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := a.Submit(Write, int64(i)*1024, 8, false, func(r Result) {
			results++
			if r.Failed {
				failed++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	if results != 20 || failed != 20 {
		t.Fatalf("results=%d failed=%d, want 20/20 failed completions", results, failed)
	}
}

// A crash loses the delayed queues but not the NVRAM table: a fresh array
// instance adopts the snapshot and completes the owed copies.
func TestNVRAMSnapshotRecovery(t *testing.T) {
	sim, a := newArray(t, layout.SRArray(1, 3), "rsatf", nil)
	rng := rand.New(rand.NewSource(13))
	wrote := 0
	for i := 0; i < 15; i++ {
		off := rng.Int63n(a.DataSectors() - 8)
		wrote++
		a.Submit(Write, off, 8, false, func(Result) { wrote-- })
	}
	for wrote > 0 {
		sim.Step()
	}
	if a.NVRAMUsed() == 0 {
		t.Skip("propagation outran the crash point")
	}
	snap, err := a.SnapshotNVRAM()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) == 0 {
		t.Fatal("empty snapshot with pending entries")
	}
	// "Reboot": a brand new array of the same configuration.
	_, b := newArray(t, layout.SRArray(1, 3), "rsatf", nil)
	n, err := b.AdoptNVRAM(snap)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("recovery reissued nothing")
	}
	if !b.Drain(des.Hour) {
		t.Fatal("recovered array did not drain")
	}
	var cmds int64
	for i := 0; i < b.Disks(); i++ {
		cmds += b.Commands(i)
	}
	if cmds < int64(n) {
		t.Fatalf("recovered array executed %d commands for %d owed copies", cmds, n)
	}
}

func TestAdoptNVRAMRejectsGarbage(t *testing.T) {
	_, a := newArray(t, layout.SRArray(1, 3), "rsatf", nil)
	if _, err := a.AdoptNVRAM([]byte("not a gob stream")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}
