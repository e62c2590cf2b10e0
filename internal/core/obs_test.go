package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

// sumDrive collects the totals the reconciliation assertions need from
// one drive's metrics.
type driveTotals struct {
	dispatches, faulted, failovers, retries, transients, timeouts int64
	hist                                                          int64 // clean service samples, all classes/ops
	cleanBGReads, cleanDelayedWrites, cleanFGReads                int64
}

func totalsOf(rec *obs.Recorder) driveTotals {
	var s driveTotals
	for i := 0; i < rec.Drives(); i++ {
		d := rec.Drive(i)
		s.dispatches += d.Dispatches
		s.faulted += d.Faulted
		s.failovers += d.Failovers
		s.retries += d.Retries
		s.transients += d.Transients
		s.timeouts += d.Timeouts
		for c := 0; c < int(obs.NumClasses); c++ {
			for op := 0; op < int(obs.NumOps); op++ {
				s.hist += d.Service[c][op].Count
			}
		}
		s.cleanBGReads += d.Service[obs.Background][obs.OpRead].Count
		s.cleanDelayedWrites += d.Service[obs.Delayed][obs.OpWrite].Count
		s.cleanFGReads += d.Service[obs.Foreground][obs.OpRead].Count
	}
	return s
}

// TestObsReconciliation is the acceptance check: a fault-injected
// degraded-plus-rebuild run must produce per-drive histograms whose
// totals reconcile exactly with Array.Faults() and the completed-I/O
// counts — no dispatch double-counted, none dropped.
func TestObsReconciliation(t *testing.T) {
	reg := &obs.Registry{TraceCap: 128}
	cfg := layout.Config{Ds: 1, Dr: 2, Dm: 2} // Dr > 1 so rebuild writes Dr copies per chunk
	sim, a := newArray(t, cfg, "rsatf", func(o *Options) {
		o.DataSectors = 1 << 15
		o.Spares = 1
		o.RebuildMBps = 100
		o.Faults = disk.FaultModel{TransientRate: 0.1, TimeoutRate: 0.05, TimeoutDelay: des.Millisecond}
		o.Obs = reg
		o.ObsLabel = "reconcile"
	})
	if err := a.FailDrive(1); err != nil {
		t.Fatal(err)
	}
	// A closed loop of reads over the degraded array while the rebuild
	// runs underneath.
	// Offsets are 8-aligned so no request straddles a stripe unit: each
	// read is exactly one piece, keeping pieces == user I/Os for the
	// completed-count reconciliation below.
	const ios = 400
	rng := rand.New(rand.NewSource(7))
	served := 0
	for i := 0; i < ios; i++ {
		off := rng.Int63n(a.DataSectors()/8-1) * 8
		var got Result
		if err := a.Submit(Read, off, 8, false, func(r Result) { got = r }); err != nil {
			t.Fatal(err)
		}
		for got.Done == 0 {
			if !sim.Step() {
				t.Fatalf("stalled at read %d", i)
			}
		}
		if !got.Failed {
			served++
		}
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	fc := a.Faults()
	if fc.RebuildsDone != 1 || fc.LostChunks != 0 {
		t.Fatalf("rebuild counters %+v", fc)
	}
	if fc.Transients == 0 || fc.Timeouts == 0 || fc.Retries == 0 {
		t.Fatalf("fault injection produced no faults: %+v", fc)
	}
	if served != ios {
		t.Fatalf("served %d of %d reads", served, ios)
	}

	rec := a.obsRec
	if snap, err := reg.Snapshot(); rec == nil || err != nil || !bytes.Contains(snap, []byte(`"label": "reconcile"`)) {
		t.Fatalf("recorder not attached under its label: %v, %v", rec, err)
	}
	s := totalsOf(rec)

	// Histograms hold exactly the clean dispatches (satellite exclusion
	// rule: faulted/timed-out runs contribute no timings).
	if s.hist != s.dispatches-s.faulted {
		t.Fatalf("histogram samples %d != dispatches %d - faulted %d", s.hist, s.dispatches, s.faulted)
	}
	// Per-drive fault counters roll up to exactly the array's counters.
	if s.failovers != fc.Failovers {
		t.Fatalf("recorder failovers %d != array %d", s.failovers, fc.Failovers)
	}
	if s.retries != fc.Retries {
		t.Fatalf("recorder retries %d != array %d", s.retries, fc.Retries)
	}
	if s.transients != fc.Transients || s.timeouts != fc.Timeouts {
		t.Fatalf("recorder faults %d/%d != array %d/%d", s.transients, s.timeouts, fc.Transients, fc.Timeouts)
	}
	// Every served read produced exactly one clean foreground dispatch
	// (duplicates cancel; failovers re-dispatch until one run is clean).
	if s.cleanFGReads != int64(served) {
		t.Fatalf("clean foreground reads %d != served %d", s.cleanFGReads, served)
	}
	// The rebuild read each reconstructed chunk once cleanly and wrote Dr
	// delayed copies of it onto the spare.
	if rec.ChunksDone == 0 || rec.ChunksLost != fc.LostChunks {
		t.Fatalf("chunks done/lost = %d/%d (array lost %d)", rec.ChunksDone, rec.ChunksLost, fc.LostChunks)
	}
	if s.cleanBGReads != rec.ChunksDone {
		t.Fatalf("clean background reads %d != chunks done %d", s.cleanBGReads, rec.ChunksDone)
	}
	if want := rec.ChunksDone * int64(cfg.Dr); s.cleanDelayedWrites != want {
		t.Fatalf("clean delayed writes %d != Dr*chunks %d", s.cleanDelayedWrites, want)
	}
}

// TestObsHistogramExcludesFaultedRuns pins the exclusion rule on a plain
// degraded mirror (no rebuild): histogram counts equal successful
// completions only, while faulted runs still count as dispatches.
func TestObsHistogramExcludesFaultedRuns(t *testing.T) {
	reg := &obs.Registry{}
	sim, a := newArray(t, layout.RAID10(4), "satf", func(o *Options) {
		o.DataSectors = 1 << 15
		o.Faults = disk.FaultModel{TransientRate: 0.25, TimeoutRate: 0.1, TimeoutDelay: des.Millisecond}
		o.Obs = reg
	})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		off := rng.Int63n(a.DataSectors() - 8)
		done := false
		if err := a.Submit(Read, off, 8, false, func(Result) { done = true }); err != nil {
			t.Fatal(err)
		}
		for !done {
			if !sim.Step() {
				t.Fatalf("stalled at read %d", i)
			}
		}
	}
	s := totalsOf(a.obsRec)
	if s.faulted == 0 {
		t.Fatal("fault rates produced no faulted runs; test is vacuous")
	}
	if s.hist != s.dispatches-s.faulted {
		t.Fatalf("histogram samples %d != clean dispatches %d", s.hist, s.dispatches-s.faulted)
	}
}

// TestObsDelayedWritesAndNVRAMGauge covers the write path: delayed
// propagation records Delayed-class service times and samples the NVRAM
// table occupancy.
func TestObsDelayedWritesAndNVRAMGauge(t *testing.T) {
	reg := &obs.Registry{}
	sim, a := newArray(t, layout.SRArray(2, 2), "rsatf", func(o *Options) {
		o.DataSectors = 1 << 15
		o.Obs = reg
	})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		// 8-aligned: one piece (and thus Dr-1 delayed copies) per write.
		off := rng.Int63n(a.DataSectors()/8-1) * 8
		done := false
		if err := a.Submit(Write, off, 8, false, func(Result) { done = true }); err != nil {
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
	rec := a.obsRec
	s := totalsOf(rec)
	// Each write lands one foreground copy and Dr-1 delayed propagations.
	if s.cleanDelayedWrites != 50*int64(2-1) {
		t.Fatalf("delayed writes %d, want 50", s.cleanDelayedWrites)
	}
	if rec.NVRAM.Samples == 0 || rec.NVRAM.Max < 1 {
		t.Fatalf("NVRAM gauge never sampled: %+v", rec.NVRAM)
	}
	if rec.NVRAM.Cur != 0 {
		t.Fatalf("NVRAM gauge should drain to 0, at %d", rec.NVRAM.Cur)
	}
	// Scheduler observation rode along.
	var picks int64
	for i := 0; i < rec.Drives(); i++ {
		picks += rec.Drive(i).Picks
	}
	if picks == 0 {
		t.Fatal("no scheduling decisions observed")
	}
}

// TestObsDisabledLeavesArrayUntouched: no registry, no recorder — and the
// run still works (the nil-guard path).
func TestObsDisabledLeavesArrayUntouched(t *testing.T) {
	sim, a := newArray(t, layout.SRArray(2, 2), "rsatf", nil)
	done := false
	if err := a.Submit(Read, 0, 8, false, func(Result) { done = true }); err != nil {
		t.Fatal(err)
	}
	for !done {
		if !sim.Step() {
			t.Fatal("stalled")
		}
	}
	if a.obsRec != nil {
		t.Fatal("recorder attached without a registry")
	}
}
