package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

// scrubCopies returns how many chunk copies one full scrub pass visits.
func scrubCopies(a *Array) int64 {
	var total int64
	for slot := range a.drives {
		total += a.slotChunks(slot) * int64(a.opts.Config.Dr)
	}
	return total
}

// TestScrubRepairsInjected: a single scrub pass over a pre-poisoned array
// visits every chunk copy, condemns exactly the poisoned ones, and repairs
// them all in place. Step accounting must be exact: every cursor step ends
// in exactly one of Verified/Corrupt/Skipped/Faulted, with source-read
// detections as the only extras.
func TestScrubRepairsInjected(t *testing.T) {
	sim, a := newArray(t, layout.RAID10(4), "rsatf", func(o *Options) {
		o.DataSectors = 1 << 16
	})
	injected := a.InjectCorruption(24, 5)
	if injected != 24 {
		t.Fatalf("injected %d of 24", injected)
	}
	if got := a.CorruptCopies(); got != injected {
		t.Fatalf("oracle holds %d corrupt copies after injecting %d", got, injected)
	}
	if err := a.StartScrub(ScrubOptions{MBps: 64}); err != nil {
		t.Fatal(err)
	}
	if p := a.ScrubProgress(); !p.Active || p.Pass != 1 {
		t.Fatalf("progress %+v after start", p)
	}
	_ = sim
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	sc := a.ScrubCounters()
	if sc.Passes != 1 {
		t.Fatalf("passes = %d, want 1", sc.Passes)
	}
	if a.ScrubProgress().Active {
		t.Fatal("progress still active after the pass retired")
	}
	steps := scrubCopies(a)
	if sum := sc.Verified + sc.Corrupt + sc.Skipped + sc.Faulted; sum < steps {
		t.Fatalf("step accounting lost ground: %d of %d steps accounted (%+v)", sum, steps, sc)
	}
	if sc.Verified+sc.Skipped > steps {
		t.Fatalf("more clean steps than steps exist: %+v over %d", sc, steps)
	}
	if sc.Corrupt < int64(injected) {
		t.Fatalf("scrub condemned %d of %d injected copies", sc.Corrupt, injected)
	}
	if sc.RepairsQueued != sc.Repaired+sc.RepairsDropped {
		t.Fatalf("repairs do not reconcile after drain: %+v", sc)
	}
	if sc.Unrepairable != 0 {
		t.Fatalf("unrepairable = %d with clean mirrors present", sc.Unrepairable)
	}
	if got := a.CorruptCopies(); got != 0 {
		t.Fatalf("%d corrupt copies survive a full scrub pass", got)
	}
	// A second run may start once the first retired.
	if err := a.StartScrub(ScrubOptions{MBps: 64}); err != nil {
		t.Fatalf("restart after retire: %v", err)
	}
	if !a.Drain(des.Hour) {
		t.Fatal("second pass failed to drain")
	}
	if got := a.ScrubCounters().Passes; got != 2 {
		t.Fatalf("cumulative passes = %d, want 2", got)
	}
}

// TestSilentVsVerifiedExposure: with every copy of the volume poisoned, an
// unverified read hands garbage to the caller and only SilentReads notices;
// a verified read refuses — it condemns copy after copy and fails with
// ErrCorruptData instead of returning wrong data.
func TestSilentVsVerifiedExposure(t *testing.T) {
	run := func(verify bool) (*Array, Result) {
		sim, a := newArray(t, layout.Mirror(2), "satf", func(o *Options) {
			o.DataSectors = 1 << 12
			o.VerifyReads = verify
		})
		// Poison everything: 2 drives x chunks x 1 replica.
		want := int(scrubCopies(a))
		if got := a.InjectCorruption(want, 9); got != want {
			t.Fatalf("poisoned %d of %d copies", got, want)
		}
		var res Result
		done := false
		if err := a.Submit(Read, 0, 8, false, func(r Result) { res = r; done = true }); err != nil {
			t.Fatal(err)
		}
		for !done {
			if !sim.Step() {
				t.Fatal("stalled")
			}
		}
		if !a.Drain(des.Hour) {
			t.Fatal("drain failed")
		}
		return a, res
	}

	a, res := run(false)
	if res.Failed {
		t.Fatalf("unverified read failed: %v", res.Err)
	}
	if got := a.Faults().SilentReads; got == 0 {
		t.Fatal("corrupt data reached the caller without a SilentReads count")
	}
	if a.Faults().VerifyDetected != 0 {
		t.Fatal("verification fired with VerifyReads off")
	}

	a, res = run(true)
	if !res.Failed || !errors.Is(res.Err, ErrCorruptData) {
		t.Fatalf("verified read of an all-poisoned chunk: failed=%v err=%v", res.Failed, res.Err)
	}
	fc := a.Faults()
	if fc.SilentReads != 0 {
		t.Fatalf("SilentReads = %d with verification on", fc.SilentReads)
	}
	if fc.VerifyDetected == 0 {
		t.Fatal("verification never fired")
	}
	if fc.Unrepairable == 0 {
		t.Fatal("condemning the last copy was not counted unrepairable")
	}
}

// TestLatentRateStreamEndToEnd: latent errors drawn from the per-drive
// corruption stream are poisoned, detected by verify-on-read, failed over,
// and repaired in place — no corrupt data reaches the caller and the
// oracle ends clean.
func TestLatentRateStreamEndToEnd(t *testing.T) {
	sim, a := newArray(t, layout.RAID10(4), "rsatf", func(o *Options) {
		o.DataSectors = 1 << 15
		o.Faults = disk.FaultModel{LatentRate: 0.03}
		o.VerifyReads = true
	})
	served, failed := closedLoopReads(t, sim, a, 600, 4, 21)
	if failed != 0 || served != 600 {
		t.Fatalf("served %d failed %d; mirrored reads must fail over around latent errors", served, failed)
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	fc := a.Faults()
	if fc.LatentErrors == 0 {
		t.Fatal("latent stream never drew at 3%")
	}
	if fc.VerifyDetected == 0 {
		t.Fatal("verification never fired")
	}
	if fc.SilentReads != 0 {
		t.Fatalf("SilentReads = %d with verification on", fc.SilentReads)
	}
	if fc.RepairsQueued == 0 || fc.RepairsQueued != fc.RepairsDone+fc.RepairsDropped {
		t.Fatalf("read repairs do not reconcile: %+v", fc)
	}
	if got := a.CorruptCopies(); got != 0 {
		t.Fatalf("%d poisoned copies left after verified reads repaired them", got)
	}
}

// TestTornWritesPoisonAndScrubCleans: torn-write draws report success onto
// garbage; the oracle records the poison, and a scrub pass afterwards
// finds and repairs it from the clean mirror copies.
func TestTornWritesPoisonAndScrubCleans(t *testing.T) {
	sim, a := newArray(t, layout.Mirror(2), "satf", func(o *Options) {
		o.DataSectors = 1 << 14
		o.Faults = disk.FaultModel{TornRate: 0.05}
		o.ForegroundWrites = true
	})
	pendingWrites(t, sim, a, 120, 31)
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	fc := a.Faults()
	if fc.TornWrites == 0 {
		t.Fatal("torn stream never drew at 5%")
	}
	poisoned := a.CorruptCopies()
	if poisoned == 0 {
		t.Fatal("torn writes left no poison in the oracle")
	}
	if err := a.StartScrub(ScrubOptions{MBps: 64}); err != nil {
		t.Fatal(err)
	}
	if !a.Drain(des.Hour) {
		t.Fatal("scrub failed to drain")
	}
	sc := a.ScrubCounters()
	if sc.Corrupt == 0 {
		t.Fatal("scrub found none of the torn copies")
	}
	if sc.Repaired == 0 {
		t.Fatalf("scrub repaired none of the torn copies: %+v", sc)
	}
	// Repair writes draw from the same torn stream, so a repair can itself
	// tear and re-poison — the pass must still strictly shrink the
	// population.
	if got := a.CorruptCopies(); got >= poisoned {
		t.Fatalf("%d poisoned copies after the pass, started with %d", got, poisoned)
	}
}

// TestHedgeFaultReconcile is the hedge x fault-injection regression: with
// hedged reads racing over a fail-slow drive while transient faults and
// timeouts fire on every drive, the hedge lifecycle must still reconcile
// exactly (Issued == Won + Lost + Cancelled), the obs recorder must mirror
// the array counters, per-drive fault attribution must sum to the global
// FaultCounters, and every dispatched hedge must appear in the trace
// stream exactly once — as a clean completion or a faulted run.
func TestHedgeFaultReconcile(t *testing.T) {
	reg := &obs.Registry{TraceCap: 1 << 16}
	sim, a := newArray(t, layout.RAID10(4), "rsatf", func(o *Options) {
		o.DataSectors = 1 << 15
		o.Faults = disk.FaultModel{
			TransientRate: 0.08,
			TimeoutRate:   0.04,
			TimeoutDelay:  des.Millisecond,
			Slow:          map[int]disk.SlowProfile{0: {Factor: 8}},
		}
		o.Hedge = true
		o.Obs = reg
		o.ObsLabel = "hedge-fault-reconcile"
	})
	pinHedge(t, a, 10*des.Millisecond)
	served, failed := closedLoopReads(t, sim, a, 800, 4, 11)
	if failed != 0 || served != 800 {
		t.Fatalf("served %d failed %d; mirrored reads must survive transient faults", served, failed)
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}

	h := a.Hedges()
	fc := a.Faults()
	if h.Issued == 0 || h.Won == 0 {
		t.Fatalf("hedging did not engage: %+v", h)
	}
	if fc.Transients == 0 || fc.Timeouts == 0 {
		t.Fatalf("fault injection did not engage: %+v", fc)
	}
	if h.Issued != h.Won+h.Lost+h.Cancelled {
		t.Fatalf("hedge counters do not reconcile: %+v", h)
	}
	rec := a.obsRec
	if rec.HedgesIssued != h.Issued || rec.HedgesWon != h.Won ||
		rec.HedgesLost != h.Lost || rec.HedgesCancelled != h.Cancelled {
		t.Fatalf("obs hedge counters %d/%d/%d/%d != array %+v",
			rec.HedgesIssued, rec.HedgesWon, rec.HedgesLost, rec.HedgesCancelled, h)
	}

	// Per-drive fault attribution sums back to the global counters.
	var transients, timeouts, retries, failovers, cleanHedge int64
	for i := 0; i < rec.Drives(); i++ {
		d := rec.Drive(i)
		transients += d.Transients
		timeouts += d.Timeouts
		retries += d.Retries
		failovers += d.Failovers
		cleanHedge += d.Service[obs.Hedge][obs.OpRead].Count
	}
	if transients != fc.Transients || timeouts != fc.Timeouts ||
		retries != fc.Retries || failovers != fc.Failovers {
		t.Fatalf("per-drive faults %d/%d/%d/%d != global %+v",
			transients, timeouts, retries, failovers, fc)
	}

	// Every dispatched hedge (Issued - Cancelled = Won + Lost) terminates
	// in exactly one trace record: clean Done or FaultedRun.
	var buf bytes.Buffer
	if err := reg.WriteTraceJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var hedgeClean, hedgeFaulted int64
	scan := bufio.NewScanner(&buf)
	scan.Buffer(make([]byte, 1<<20), 1<<20)
	for scan.Scan() {
		var tr obs.TraceRecord
		if err := json.Unmarshal(scan.Bytes(), &tr); err != nil {
			t.Fatal(err)
		}
		if tr.Class != "hedge" {
			continue
		}
		if tr.Fault != "" {
			hedgeFaulted++
		} else {
			hedgeClean++
		}
	}
	if err := scan.Err(); err != nil {
		t.Fatal(err)
	}
	if hedgeClean != cleanHedge {
		t.Fatalf("clean hedge traces %d != hedge-class histogram count %d", hedgeClean, cleanHedge)
	}
	if hedgeClean+hedgeFaulted != h.Won+h.Lost {
		t.Fatalf("hedge dispatches in trace %d+%d != won %d + lost %d",
			hedgeClean, hedgeFaulted, h.Won, h.Lost)
	}
}

// TestScrubRebuildEvictionCompose is the three-subsystem composition
// regression: a scrub is mid-pass over a pre-poisoned array when the
// health tracker evicts the fail-slow drive into a hot spare. The scrub
// must neither strand its cursors (both passes finish, every step
// accounted) nor double-count, the rebuild must complete, and the poison
// that survives on live drives must end repaired.
func TestScrubRebuildEvictionCompose(t *testing.T) {
	sim, a := newArray(t, layout.RAID10(4), "rsatf", func(o *Options) {
		o.DataSectors = 1 << 16
		o.Spares = 1
		o.RebuildMBps = 100
		o.Faults = slowDrive0()
		o.Health = HealthOptions{Enabled: true, EvictRatio: 2.5}
		o.VerifyReads = true
	})
	injected := a.InjectCorruption(24, 7)
	if injected != 24 {
		t.Fatalf("injected %d of 24", injected)
	}
	if err := a.StartScrub(ScrubOptions{MBps: 8, Passes: 2}); err != nil {
		t.Fatal(err)
	}
	served, failed := closedLoopReads(t, sim, a, 600, 4, 9)
	if served+failed != 600 {
		t.Fatalf("served %d failed %d of 600", served, failed)
	}
	// A handful of failures is the contract working: mid-rebuild, a
	// poisoned survivor whose mirror has not reached the spare yet has no
	// clean copy, and a verified read must fail rather than return garbage.
	if failed > 10 {
		t.Fatalf("%d of 600 reads failed; expected only the brief rebuild window to refuse", failed)
	}
	if fc := a.Faults(); fc.Evictions != 1 {
		t.Fatalf("evictions = %d; the composition needs the eviction mid-scrub", fc.Evictions)
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}

	fc := a.Faults()
	if fc.RebuildsDone != 1 {
		t.Fatalf("rebuild did not complete: %+v", fc)
	}
	// Some loss is inherent to this composition: a poisoned copy whose
	// only mirror sat on the evicted drive has no clean source left. The
	// invariant is that the loss is *detected* — counted in LostChunks,
	// never served silently — and bounded by the injected population.
	if fc.LostChunks > int64(injected) {
		t.Fatalf("lost %d chunks from %d injections: %+v", fc.LostChunks, injected, fc)
	}
	sc := a.ScrubCounters()
	if sc.Passes != 2 {
		t.Fatalf("passes = %d, want 2; eviction stranded the scan", sc.Passes)
	}
	if a.ScrubProgress().Active {
		t.Fatal("scrub still active after drain")
	}
	steps := 2 * scrubCopies(a)
	if sum := sc.Verified + sc.Corrupt + sc.Skipped + sc.Faulted; sum < steps {
		t.Fatalf("step accounting lost ground across the eviction: %d of %d (%+v)", sum, steps, sc)
	}
	if sc.Verified+sc.Skipped > steps {
		t.Fatalf("double-counted steps: %+v over %d", sc, steps)
	}
	if sc.RepairsQueued != sc.Repaired+sc.RepairsDropped {
		t.Fatalf("scrub repairs do not reconcile: %+v", sc)
	}
	if fc.RepairsQueued != fc.RepairsDone+fc.RepairsDropped {
		t.Fatalf("read repairs do not reconcile: %+v", fc)
	}
	if fc.SilentReads != 0 {
		t.Fatalf("SilentReads = %d with verification on", fc.SilentReads)
	}
	// What poison remains is exactly the condemned-unrepairable residue;
	// every repairable copy was cleaned and nothing silent survives the
	// final scrub pass.
	remaining := a.CorruptCopies()
	if remaining >= injected {
		t.Fatalf("%d of %d poisoned copies survive scrub + rebuild + repair", remaining, injected)
	}
	if remaining > int(fc.Unrepairable) {
		t.Fatalf("%d corrupt copies remain but only %d were condemned unrepairable", remaining, fc.Unrepairable)
	}
}

// TestCorruptionDisabledStaysOff: with no corruption configured the
// integrity oracle never engages — a mixed workload leaves every
// corruption counter zero and allocates no oracle state.
func TestCorruptionDisabledStaysOff(t *testing.T) {
	sim, a := newArray(t, layout.SRArray(2, 3), "rsatf", nil)
	pendingWrites(t, sim, a, 40, 3)
	closedLoopReads(t, sim, a, 200, 4, 3)
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	if a.integrity {
		t.Fatal("integrity oracle engaged with nothing to consult it")
	}
	fc := a.Faults()
	if fc.LatentErrors != 0 || fc.TornWrites != 0 || fc.CorruptReads != 0 ||
		fc.SilentReads != 0 || fc.VerifyDetected != 0 || fc.RepairsQueued != 0 {
		t.Fatalf("corruption counters moved while disabled: %+v", fc)
	}
	if a.ScrubCounters() != (ScrubCounters{}) {
		t.Fatalf("scrub counters moved while disabled: %+v", a.ScrubCounters())
	}
	for _, d := range a.drives {
		if d.integ != nil {
			t.Fatal("oracle state allocated while disabled")
		}
	}
}

// TestCorruptionOptionValidation: the new knobs reject nonsense at
// construction, and StartScrub refuses to double-start.
func TestCorruptionOptionValidation(t *testing.T) {
	bad := []func(*Options){
		func(o *Options) { o.Faults = disk.FaultModel{LatentRate: -0.1} },
		func(o *Options) { o.Faults = disk.FaultModel{CorruptRate: 0.6} },
		func(o *Options) { o.Faults = disk.FaultModel{TornRate: 2} },
		func(o *Options) { o.Faults = disk.FaultModel{LatentRate: 0.5, CorruptRate: 0.45} },
	}
	for i, mod := range bad {
		o := Options{Config: layout.RAID10(4), DataSectors: 1 << 15}
		mod(&o)
		if _, err := New(des.New(), o); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
	_, a := newArray(t, layout.RAID10(4), "rsatf", nil)
	for _, o := range []ScrubOptions{{MBps: -1}, {Passes: -1}} {
		if err := a.StartScrub(o); err == nil {
			t.Errorf("StartScrub(%+v) accepted", o)
		}
	}
	if err := a.StartScrub(ScrubOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := a.StartScrub(ScrubOptions{}); err == nil {
		t.Fatal("second concurrent scrub accepted")
	}
}
