package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/layout"
)

// --- Bounds and typed-error satellites ---

func TestFailDriveBoundsChecked(t *testing.T) {
	_, a := newArray(t, layout.Mirror(2), "satf", nil)
	for _, i := range []int{-1, 2, 100} {
		if err := a.FailDrive(i); !errors.Is(err, ErrDriveIndex) {
			t.Errorf("FailDrive(%d) = %v, want ErrDriveIndex", i, err)
		}
		if a.Alive(i) {
			t.Errorf("Alive(%d) true for out-of-range index", i)
		}
	}
	if err := a.FailDrive(0); err != nil {
		t.Fatalf("FailDrive(0): %v", err)
	}
	if err := a.FailDrive(0); err != nil {
		t.Fatalf("second FailDrive(0): %v", err)
	}
}

func TestAllStaleReadFailsInsteadOfPanicking(t *testing.T) {
	// Manufacture the "staleness bug" state directly: every replica of a
	// chunk stale with all drives alive. The read must come back Failed
	// with ErrNoFreshReplica, not kill the process.
	_, a := newArray(t, layout.SRArray(1, 2), "rsatf", nil)
	d := a.drives[0]
	a.markStale(d, 0, 0)
	a.markStale(d, 0, 1)
	var res Result
	got := false
	if err := a.Submit(Read, 0, 8, false, func(r Result) { res, got = r, true }); err != nil {
		t.Fatal(err)
	}
	if !a.Drain(des.Hour) || !got {
		t.Fatal("read never completed")
	}
	if !res.Failed || !errors.Is(res.Err, ErrNoFreshReplica) {
		t.Fatalf("Failed=%v Err=%v, want ErrNoFreshReplica", res.Failed, res.Err)
	}
	if a.Faults().FailedReads != 1 {
		t.Fatalf("FailedReads = %d, want 1", a.Faults().FailedReads)
	}
}

func TestDegradedReadReportsDataLost(t *testing.T) {
	_, a := newArray(t, layout.Striping(2), "satf", nil)
	if err := a.FailDrive(0); err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := a.Submit(Read, 0, 8, false, func(r Result) { res = r }); err != nil {
		t.Fatal(err)
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	if !res.Failed || !errors.Is(res.Err, ErrDataLost) {
		t.Fatalf("Failed=%v Err=%v, want ErrDataLost", res.Failed, res.Err)
	}
}

// --- Delayed-queue failure satellites ---

// writeAndCatchPropagation performs one delayed-mode write and returns the
// drive indexes holding the first copy (source) and a pending delayed copy
// (destination). Skips if propagation already drained.
func writeAndCatchPropagation(t *testing.T, sim *des.Sim, a *Array) (src, dst int) {
	t.Helper()
	wrote := false
	if err := a.Submit(Write, 4096, 8, false, func(Result) { wrote = true }); err != nil {
		t.Fatal(err)
	}
	for !wrote {
		sim.Step()
	}
	if a.NVRAMUsed() == 0 {
		t.Skip("propagation finished before the failure point")
	}
	src, dst = -1, -1
	for i := 0; i < a.Disks(); i++ {
		if len(a.drives[i].delayed) > 0 {
			dst = i
		} else {
			src = i
		}
	}
	if src < 0 || dst < 0 {
		t.Skip("no split between first copy and pending propagation")
	}
	return src, dst
}

// Failing the SOURCE drive (the one that took the first copy) while the
// propagation to the mirror is still queued: the pending copy must still
// land, after which the mirror is fresh and the data readable.
func TestFailSourceWithPropagationMidQueue(t *testing.T) {
	sim, a := newArray(t, layout.RAID10(2), "satf", nil)
	src, _ := writeAndCatchPropagation(t, sim, a)
	if err := a.FailDrive(src); err != nil {
		t.Fatal(err)
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	if a.NVRAMUsed() != 0 {
		t.Fatalf("NVRAM = %d after drain", a.NVRAMUsed())
	}
	var res Result
	got := false
	a.Submit(Read, 4096, 8, false, func(r Result) { res, got = r, true })
	if !a.Drain(des.Hour) || !got {
		t.Fatal("read never completed")
	}
	if res.Failed {
		t.Fatalf("read failed (%v) though the propagated copy landed", res.Err)
	}
}

// Failing the DESTINATION drive (holding the queued propagation) drops the
// copy, resolves its table entry, and leaves the source serving reads.
func TestFailDestinationWithPropagationMidQueue(t *testing.T) {
	sim, a := newArray(t, layout.RAID10(2), "satf", nil)
	_, dst := writeAndCatchPropagation(t, sim, a)
	if err := a.FailDrive(dst); err != nil {
		t.Fatal(err)
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	if a.NVRAMUsed() != 0 {
		t.Fatalf("NVRAM = %d after drain", a.NVRAMUsed())
	}
	var res Result
	got := false
	a.Submit(Read, 4096, 8, false, func(r Result) { res, got = r, true })
	if !a.Drain(des.Hour) || !got {
		t.Fatal("read never completed")
	}
	if res.Failed {
		t.Fatalf("read failed (%v) though the first copy survives", res.Err)
	}
}

// Double failure of an SR-Mirror pair: both mirrors of position 0 die.
// Chunks of that position are lost (ErrDataLost); the other position keeps
// serving.
func TestSRMirrorPairDoubleFailure(t *testing.T) {
	cfg := layout.Config{Ds: 1, Dr: 2, Dm: 2} // G=2: position 0 on drives 0 and 2
	_, a := newArray(t, cfg, "rsatf", nil)
	if err := a.FailDrive(0); err != nil {
		t.Fatal(err)
	}
	if err := a.FailDrive(2); err != nil {
		t.Fatal(err)
	}
	unit := int64(a.Layout().StripeUnit())
	type outcome struct {
		failed bool
		err    error
	}
	results := map[int64]outcome{}
	for chunk := int64(0); chunk < 8; chunk++ {
		chunk := chunk
		if err := a.Submit(Read, chunk*unit, 8, false, func(r Result) {
			results[chunk] = outcome{r.Failed, r.Err}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	for chunk, got := range results {
		lost := chunk%2 == 0
		if got.failed != lost {
			t.Errorf("chunk %d: failed=%v, want %v", chunk, got.failed, lost)
		}
		if lost && !errors.Is(got.err, ErrDataLost) {
			t.Errorf("chunk %d: err=%v, want ErrDataLost", chunk, got.err)
		}
	}
}

// --- Fault injection: retry and failover ---

func TestTransientFaultsRetryToCompletion(t *testing.T) {
	_, a := newArray(t, layout.Striping(1), "satf", func(o *Options) {
		o.Faults = disk.FaultModel{TransientRate: 0.3}
	})
	rng := rand.New(rand.NewSource(3))
	ok, failed := 0, 0
	for i := 0; i < 100; i++ {
		off := rng.Int63n(a.DataSectors() - 8)
		if err := a.Submit(Read, off, 8, false, func(r Result) {
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
	if ok != 100 || failed != 0 {
		t.Fatalf("ok=%d failed=%d, want all 100 served through retries", ok, failed)
	}
	fc := a.Faults()
	if fc.Transients == 0 || fc.Retries == 0 {
		t.Fatalf("counters %+v: expected transients and retries at rate 0.3", fc)
	}
}

func TestTimeoutFaultsFailOverOnMirror(t *testing.T) {
	_, a := newArray(t, layout.Mirror(2), "satf", func(o *Options) {
		o.Faults = disk.FaultModel{TimeoutRate: 0.4, TimeoutDelay: 5 * des.Millisecond}
	})
	rng := rand.New(rand.NewSource(4))
	ok := 0
	for i := 0; i < 150; i++ {
		off := rng.Int63n(a.DataSectors() - 8)
		if err := a.Submit(Read, off, 8, false, func(r Result) {
			if !r.Failed {
				ok++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	if ok != 150 {
		t.Fatalf("%d of 150 reads served", ok)
	}
	fc := a.Faults()
	if fc.Timeouts == 0 {
		t.Fatal("no timeouts observed at rate 0.4")
	}
	if fc.Failovers == 0 {
		t.Fatal("no failovers: double faults should have exhausted the in-drive retry")
	}
}

func TestFaultInjectionDeterministic(t *testing.T) {
	run := func() (des.Time, FaultCounters) {
		sim, a := newArray(t, layout.RAID10(4), "satf", func(o *Options) {
			o.Faults = disk.FaultModel{TransientRate: 0.1, TimeoutRate: 0.05}
		})
		mean := runRandomReads(t, sim, a, 120, 8, 9)
		return mean, a.Faults()
	}
	m1, f1 := run()
	m2, f2 := run()
	if m1 != m2 || f1 != f2 {
		t.Fatalf("identical seeds diverged: %v/%v %+v/%+v", m1, m2, f1, f2)
	}
}

func TestZeroFaultModelUnchangedFromSeedBehavior(t *testing.T) {
	// A zero fault model must not perturb the simulation: same mean as an
	// array built without the field ever set (they are the same code path,
	// but this pins the no-draw guarantee).
	run := func(withField bool) des.Time {
		sim, a := newArray(t, layout.SRArray(2, 2), "rsatf", func(o *Options) {
			if withField {
				o.Faults = disk.FaultModel{}
			}
		})
		return runRandomReads(t, sim, a, 60, 8, 11)
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("zero fault model changed timing: %v vs %v", a, b)
	}
}

// --- Hot-spare rebuild ---

// The acceptance scenario: a seeded RAID-10 run with one spare fails a
// drive mid-stream. Every read completes (zero lost), the rebuild finishes
// during the drain, and the array is fully restored and healthy. The whole
// run is deterministic.
func TestSpareRebuildRestoresRedundancy(t *testing.T) {
	run := func() (des.Time, FaultCounters) {
		sim := des.New()
		a, err := New(sim, Options{
			Config:      layout.RAID10(4),
			Policy:      "satf",
			DataSectors: 1 << 15, // 16 MB -> 256 chunks, 128 on the failed slot
			Seed:        42,
			Spares:      1,
			RebuildMBps: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		var total des.Time
		served, lost := 0, 0
		doIO := func(i int) {
			off := rng.Int63n(a.DataSectors() - 8)
			op := Read
			if i%4 == 3 {
				op = Write
			}
			done := false
			if err := a.Submit(op, off, 8, false, func(r Result) {
				done = true
				if r.Failed {
					lost++
				} else {
					served++
					total += r.Latency()
				}
			}); err != nil {
				t.Fatal(err)
			}
			for !done {
				if !sim.Step() {
					t.Fatal("simulation stalled")
				}
			}
		}
		for i := 0; i < 50; i++ {
			doIO(i)
		}
		if err := a.FailDrive(0); err != nil {
			t.Fatal(err)
		}
		if a.Spares() != 0 {
			t.Fatal("spare not consumed")
		}
		if st := a.DriveState(0); st != DriveRebuilding {
			t.Fatalf("DriveState(0) = %v mid-rebuild", st)
		}
		for i := 50; i < 300; i++ {
			doIO(i)
		}
		if !a.Drain(des.Hour) {
			t.Fatal("drain (incl. rebuild) did not finish")
		}
		if lost != 0 {
			t.Fatalf("%d of %d I/Os lost with a spare configured", lost, lost+served)
		}
		if !a.Alive(0) {
			t.Fatal("slot 0 not alive after rebuild")
		}
		if st := a.DriveState(0); st != DriveHealthy {
			t.Fatalf("DriveState(0) = %v after rebuild", st)
		}
		if p := a.RebuildProgress(); p.Active {
			t.Fatalf("rebuild still active after drain: %+v", p)
		}
		fc := a.Faults()
		if fc.RebuildsStarted != 1 || fc.RebuildsDone != 1 || fc.LostChunks != 0 {
			t.Fatalf("rebuild counters %+v", fc)
		}
		// Redundancy truly restored: the other mirror can now die and every
		// chunk still reads.
		if err := a.FailDrive(2); err != nil {
			t.Fatal(err)
		}
		unit := int64(a.Layout().StripeUnit())
		failedReads := 0
		for chunk := int64(0); chunk < 16; chunk += 2 { // position 0 chunks
			if err := a.Submit(Read, chunk*unit, 8, false, func(r Result) {
				if r.Failed {
					failedReads++
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		if !a.Drain(des.Hour) {
			t.Fatal("post-rebuild drain failed")
		}
		if failedReads != 0 {
			t.Fatalf("%d reads failed from the rebuilt copy", failedReads)
		}
		return total, fc
	}
	t1, f1 := run()
	t2, f2 := run()
	if t1 != t2 || f1 != f2 {
		t.Fatalf("rebuild run not deterministic: %v/%v %+v/%+v", t1, t2, f1, f2)
	}
}

// Rebuild progress is observable and ETA shrinks as chunks land.
func TestRebuildProgressReporting(t *testing.T) {
	sim, a := newArray(t, layout.RAID10(4), "satf", func(o *Options) {
		o.DataSectors = 1 << 15
		o.Spares = 1
		o.RebuildMBps = 100
	})
	if err := a.FailDrive(1); err != nil {
		t.Fatal(err)
	}
	p0 := a.RebuildProgress()
	if !p0.Active || p0.Slot != 1 || p0.Total == 0 || p0.Done != 0 {
		t.Fatalf("initial progress %+v", p0)
	}
	eta0 := p0.ETA
	// Let part of the rebuild run.
	deadline := sim.Now() + 50*des.Millisecond
	for sim.Now() < deadline && sim.Step() {
	}
	p1 := a.RebuildProgress()
	if p1.Active && (p1.Done == 0 || p1.ETA >= eta0) {
		t.Fatalf("no progress after 50 ms: %+v (eta0 %v)", p1, eta0)
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	if a.RebuildProgress().Active || a.DriveState(1) != DriveHealthy {
		t.Fatal("rebuild did not complete")
	}
}

// Without a spare (or without mirror redundancy) no rebuild starts.
func TestNoRebuildWithoutSpareOrRedundancy(t *testing.T) {
	_, a := newArray(t, layout.RAID10(4), "satf", nil) // no spares
	a.FailDrive(0)
	if a.RebuildProgress().Active || a.Faults().RebuildsStarted != 0 {
		t.Fatal("rebuild started without a spare")
	}
	_, b := newArray(t, layout.SRArray(2, 2), "rsatf", func(o *Options) { o.Spares = 1 })
	b.FailDrive(0)
	if b.RebuildProgress().Active || b.Faults().RebuildsStarted != 0 {
		t.Fatal("rebuild started without mirror redundancy to copy from")
	}
	if b.Spares() != 1 {
		t.Fatal("spare consumed with nothing to rebuild")
	}
}

// The spare itself failing mid-rebuild cancels cleanly; a second spare
// picks the slot back up and finishes.
func TestSpareFailureMidRebuildFallsBackToSecondSpare(t *testing.T) {
	sim, a := newArray(t, layout.RAID10(4), "satf", func(o *Options) {
		o.DataSectors = 1 << 15
		o.Spares = 2
		o.RebuildMBps = 100
	})
	if err := a.FailDrive(0); err != nil {
		t.Fatal(err)
	}
	// Let the first rebuild get partway, then kill the spare in the slot.
	deadline := sim.Now() + 30*des.Millisecond
	for sim.Now() < deadline && sim.Step() {
	}
	if err := a.FailDrive(0); err != nil {
		t.Fatal(err)
	}
	if a.Spares() != 0 {
		t.Fatalf("Spares() = %d, want both consumed", a.Spares())
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	fc := a.Faults()
	if fc.RebuildsStarted != 2 || fc.RebuildsDone != 1 {
		t.Fatalf("rebuild counters %+v, want two starts and one completion", fc)
	}
	if a.DriveState(0) != DriveHealthy || fc.LostChunks != 0 {
		t.Fatalf("slot 0 state %v, lost %d", a.DriveState(0), fc.LostChunks)
	}
}

// Rebuild under foreground-write mode exercises the gate-flush path: the
// rebuild serializes against writes via the write gate even though
// foreground writes never hold it themselves.
func TestRebuildUnderForegroundWrites(t *testing.T) {
	sim, a := newArray(t, layout.RAID10(4), "satf", func(o *Options) {
		o.DataSectors = 1 << 15
		o.Spares = 1
		o.RebuildMBps = 100
		o.ForegroundWrites = true
	})
	if err := a.FailDrive(0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	lost := 0
	for i := 0; i < 150; i++ {
		off := rng.Int63n(a.DataSectors() - 8)
		op := Read
		if i%2 == 0 {
			op = Write
		}
		done := false
		if err := a.Submit(op, off, 8, false, func(r Result) {
			done = true
			if r.Failed {
				lost++
			}
		}); err != nil {
			t.Fatal(err)
		}
		for !done {
			if !sim.Step() {
				t.Fatal("stalled")
			}
		}
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	if lost != 0 {
		t.Fatalf("%d I/Os lost during foreground-write rebuild", lost)
	}
	if a.DriveState(0) != DriveHealthy {
		t.Fatalf("slot 0 = %v after drain", a.DriveState(0))
	}
}

// Rebuild with injected faults on top: reconstruction reads retry and
// fail over like any other request, and the rebuild still completes.
func TestRebuildWithFaultInjection(t *testing.T) {
	sim, a := newArray(t, layout.RAID10(4), "satf", func(o *Options) {
		o.DataSectors = 1 << 15
		o.Spares = 1
		o.RebuildMBps = 100
		o.Faults = disk.FaultModel{TransientRate: 0.2, TimeoutRate: 0.05, TimeoutDelay: des.Millisecond}
	})
	if err := a.FailDrive(3); err != nil {
		t.Fatal(err)
	}
	_ = sim
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	fc := a.Faults()
	if fc.RebuildsDone != 1 || fc.LostChunks != 0 {
		t.Fatalf("faulty rebuild counters %+v", fc)
	}
	if a.DriveState(3) != DriveHealthy {
		t.Fatalf("slot 3 = %v", a.DriveState(3))
	}
}

// TestCondemnedRebuildSourceLosesChunk: a verified read condemns the only
// source copy of a chunk after the rebuild's source read for it was queued.
// The queued read then admits no replica, so Pick skips it for good; the
// rebuild must fail it over, find no source left, count the chunk lost and
// release the chunk's write gate, so the rebuild finishes and a later
// write to the chunk completes.
func TestCondemnedRebuildSourceLosesChunk(t *testing.T) {
	_, a := newArray(t, layout.Mirror(2), "satf", func(o *Options) {
		o.DataSectors = 16 * layout.DefaultStripeUnit
		o.Spares = 1
		o.VerifyReads = true
		o.RebuildMBps = 100
	})
	// A read of chunk 0 goes straight to an idle mirror; its copy there
	// rots under the read, so the verify check will condemn it.
	var read Result
	if err := a.Submit(Read, 0, 8, false, func(r Result) { read = r }); err != nil {
		t.Fatal(err)
	}
	src := a.drives[0]
	if !src.bus.Busy() {
		src = a.drives[1]
	}
	a.poisonCopy(src, 0, 0)
	// Failing the other mirror starts the rebuild at chunk 0: its source
	// read queues behind the verified read on the only surviving copy.
	if err := a.FailDrive(1 - src.id); err != nil {
		t.Fatal(err)
	}
	if len(src.queue) != 1 || src.queue[0].Tag.(*reqTag).kind != tagRebuildRead {
		t.Fatalf("source drive queue %d requests, want the rebuild read alone", len(src.queue))
	}
	if !a.Drain(des.Hour) {
		_, gated := a.writeGate[0]
		t.Fatalf("rebuild wedged: %+v, chunk 0's write gate held: %v", a.RebuildProgress(), gated)
	}
	if !errors.Is(read.Err, ErrDataLost) {
		t.Fatalf("condemned read: %+v, want ErrDataLost", read)
	}
	f := a.Faults()
	if f.LostChunks != 1 || f.RebuildsDone != 1 || lostChunks(a) != 1 {
		t.Fatalf("lost %d chunks (%d distinct), %d rebuilds done; want 1, 1, 1", f.LostChunks, lostChunks(a), f.RebuildsDone)
	}
	if _, gated := a.writeGate[0]; gated {
		t.Fatal("chunk 0's write gate still held after the rebuild")
	}
	var write *Result
	if err := a.Submit(Write, 0, 8, false, func(r Result) { write = &r }); err != nil {
		t.Fatal(err)
	}
	if !a.Drain(des.Hour) || write == nil || write.Failed {
		t.Fatalf("write after the loss: %+v", write)
	}
}
