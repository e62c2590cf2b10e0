package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
)

// slowDrive0 is the fail-slow injection used across these tests: drive 0
// answers every command at 8x mechanical time.
func slowDrive0() disk.FaultModel {
	return disk.FaultModel{Slow: map[int]disk.SlowProfile{0: {Factor: 8}}}
}

// closedLoopReads runs n uniform random reads with the given concurrency,
// returning how many served (vs. failed).
func closedLoopReads(t *testing.T, sim *des.Sim, a *Array, n, outstanding int, seed int64) (served, failed int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	finished := 0
	issued := 0
	var issue func()
	issue = func() {
		if issued >= n {
			return
		}
		issued++
		off := rng.Int63n(a.DataSectors()-8)/8*8 + 8
		if err := a.Submit(Read, off, 8, false, func(r Result) {
			finished++
			if r.Failed {
				failed++
			} else {
				served++
			}
			issue()
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < outstanding && i < n; i++ {
		issue()
	}
	for finished < n {
		if !sim.Step() {
			t.Fatalf("stalled at %d/%d", finished, n)
		}
	}
	return served, failed
}

// TestHealthSuspectDetection: a fail-slow drive walks to Suspect while its
// healthy peers stay Healthy (eviction disabled: detection-only mode).
func TestHealthSuspectDetection(t *testing.T) {
	sim, a := newArray(t, layout.RAID10(4), "rsatf", func(o *Options) {
		o.DataSectors = 1 << 15
		o.Faults = slowDrive0()
		o.Health = HealthOptions{Enabled: true, EvictRatio: -1}
	})
	closedLoopReads(t, sim, a, 600, 4, 9)
	if got := a.DriveHealth(0); got != HealthSuspect {
		t.Fatalf("slow drive health = %v, want suspect", got)
	}
	for i := 1; i < 4; i++ {
		if got := a.DriveHealth(i); got != HealthHealthy {
			t.Fatalf("healthy drive %d health = %v", i, got)
		}
	}
	if a.Faults().Evictions != 0 {
		t.Fatal("eviction fired despite being disabled")
	}
	if a.Faults().SlowCommands == 0 {
		t.Fatal("no slow commands attributed")
	}
}

// TestHealthEvictionIntoSpare: with eviction enabled and a hot spare, the
// tracker proactively fail-stops the slow drive, the spare rebuild runs,
// and the array ends fully healthy with no slow drive in it.
func TestHealthEvictionIntoSpare(t *testing.T) {
	sim, a := newArray(t, layout.RAID10(4), "rsatf", func(o *Options) {
		o.DataSectors = 1 << 15
		o.Spares = 1
		o.RebuildMBps = 100
		o.Faults = slowDrive0()
		o.Health = HealthOptions{Enabled: true, EvictRatio: 2.5}
	})
	served, failed := closedLoopReads(t, sim, a, 600, 4, 9)
	if failed != 0 || served != 600 {
		t.Fatalf("served %d failed %d; mirrored array must survive the eviction", served, failed)
	}
	fc := a.Faults()
	if fc.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", fc.Evictions)
	}
	if fc.RebuildsStarted != 1 {
		t.Fatalf("eviction did not start the spare rebuild: %+v", fc)
	}
	if a.Spares() != 0 {
		t.Fatal("spare not consumed")
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	if a.Faults().RebuildsDone != 1 || a.Faults().LostChunks != 0 {
		t.Fatalf("rebuild did not complete cleanly: %+v", a.Faults())
	}
	if got := a.DriveState(0); got != DriveHealthy {
		t.Fatalf("slot 0 state %v after rebuild", got)
	}
	// The re-slotted spare starts with a fresh health record.
	if got := a.DriveHealth(0); got != HealthHealthy {
		t.Fatalf("spare in slot 0 reports %v", got)
	}
}

// TestHealthEvictionRequiresSpare: without a spare (or without mirror
// redundancy) the drive stays Suspect — eviction would trade a slow drive
// for a degraded array.
func TestHealthEvictionRequiresSpare(t *testing.T) {
	sim, a := newArray(t, layout.RAID10(4), "rsatf", func(o *Options) {
		o.DataSectors = 1 << 15
		o.Faults = slowDrive0()
		o.Health = HealthOptions{Enabled: true, EvictRatio: 2.5}
	})
	closedLoopReads(t, sim, a, 600, 4, 9)
	if a.Faults().Evictions != 0 {
		t.Fatal("evicted with no spare available")
	}
	if got := a.DriveHealth(0); got != HealthSuspect {
		t.Fatalf("slow drive health = %v, want suspect (eviction gated)", got)
	}
}

// TestHedgedReadsReconcile: with a pinned hedge delay over a fail-slow
// drive, hedges fire and win, and the counters reconcile exactly — every
// issued hedge terminates exactly once (Won + Lost + Cancelled), the obs
// recorder mirrors the array's counters, and the hedge-class histograms
// hold exactly the hedges that were dispatched (Won + Lost; cancelled
// hedges never dispatch, and with no fault injection every dispatched
// hedge completes cleanly).
func TestHedgedReadsReconcile(t *testing.T) {
	reg := &obs.Registry{}
	sim, a := newArray(t, layout.RAID10(4), "rsatf", func(o *Options) {
		o.DataSectors = 1 << 15
		o.Faults = slowDrive0()
		o.Hedge = true
		o.Obs = reg
		o.ObsLabel = "hedge-reconcile"
	})
	pinHedge(t, a, 10*des.Millisecond)
	served, failed := closedLoopReads(t, sim, a, 800, 4, 11)
	if failed != 0 || served != 800 {
		t.Fatalf("served %d failed %d", served, failed)
	}
	h := a.Hedges()
	if h.Issued == 0 {
		t.Fatal("no hedges issued against a fail-slow drive")
	}
	if h.Won == 0 {
		t.Fatal("no hedge ever won; the mechanism is not cutting the tail")
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
	var hedgeDispatches int64
	for i := 0; i < rec.Drives(); i++ {
		hedgeDispatches += rec.Drive(i).Service[obs.Hedge][obs.OpRead].Count
	}
	if hedgeDispatches != h.Won+h.Lost {
		t.Fatalf("hedge-class dispatches %d != won %d + lost %d", hedgeDispatches, h.Won, h.Lost)
	}
	// Slow-command attribution reached the per-drive metrics: only the
	// fail-slow drive carries SlowUS.
	for i := 0; i < rec.Drives(); i++ {
		slow := rec.Drive(i).SlowUS
		if (i == 0) != (slow > 0) {
			t.Fatalf("drive %d SlowUS = %d", i, slow)
		}
	}
	if a.Sheds() != (ShedCounters{}) {
		t.Fatalf("sheds %+v without admission control", a.Sheds())
	}
}

// TestHedgeAdaptiveDelayEngages: with no pinned delay, hedging stays off
// until the latency histogram has samples, then fires using the observed
// p99.
func TestHedgeAdaptiveDelayEngages(t *testing.T) {
	sim, a := newArray(t, layout.RAID10(4), "rsatf", func(o *Options) {
		o.DataSectors = 1 << 15
		o.Faults = slowDrive0()
		o.Hedge = true // HedgeAfter zero: adaptive
	})
	if _, ok := a.hedgeDelay(); ok {
		t.Fatal("adaptive delay armed with no samples")
	}
	closedLoopReads(t, sim, a, 800, 4, 11)
	d, ok := a.hedgeDelay()
	if !ok || d <= 0 {
		t.Fatalf("adaptive delay not armed after run: %v %v", d, ok)
	}
	if a.Hedges().Issued == 0 {
		t.Fatal("adaptive hedging never fired over a fail-slow drive")
	}
}

// TestAdmissionOverload: a burst beyond MaxQueueDepth on every candidate
// drive is shed synchronously with ErrOverload, and accepted requests all
// complete.
func TestAdmissionOverload(t *testing.T) {
	reg := &obs.Registry{}
	sim, a := newArray(t, layout.Config{Ds: 1, Dr: 1, Dm: 1}, "fcfs", func(o *Options) {
		o.DataSectors = 1 << 15
		o.MaxQueueDepth = 3
		o.Obs = reg
	})
	accepted, shed := 0, 0
	finished := 0
	for i := 0; i < 20; i++ {
		err := a.Submit(Read, int64(i*64), 8, false, func(r Result) {
			finished++
			if r.Failed {
				t.Errorf("accepted read %d failed: %v", i, r.Err)
			}
		})
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrOverload):
			shed++
		default:
			t.Fatal(err)
		}
	}
	if shed == 0 || accepted == 0 {
		t.Fatalf("burst split accepted=%d shed=%d; want both nonzero", accepted, shed)
	}
	for finished < accepted {
		if !sim.Step() {
			t.Fatalf("stalled at %d/%d", finished, accepted)
		}
	}
	if got := a.Sheds().Overload; got != int64(shed) {
		t.Fatalf("Sheds().Overload = %d, want %d", got, shed)
	}
	if rec := a.obsRec; rec.ShedOverload != int64(shed) {
		t.Fatalf("obs ShedOverload = %d, want %d", rec.ShedOverload, shed)
	}
}

// TestReadDeadlineSheds: queued reads that wait out ReadDeadline fail with
// ErrDeadlineExceeded; dispatched commands are never aborted.
func TestReadDeadlineSheds(t *testing.T) {
	reg := &obs.Registry{}
	sim, a := newArray(t, layout.Config{Ds: 1, Dr: 1, Dm: 1}, "fcfs", func(o *Options) {
		o.DataSectors = 1 << 15
		o.ReadDeadline = 5 * des.Millisecond
		o.Obs = reg
	})
	const n = 20
	served, deadline := 0, 0
	finished := 0
	for i := 0; i < n; i++ {
		if err := a.Submit(Read, int64(i*512), 8, false, func(r Result) {
			finished++
			switch {
			case !r.Failed:
				served++
			case errors.Is(r.Err, ErrDeadlineExceeded):
				deadline++
			default:
				t.Errorf("unexpected failure: %v", r.Err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	for finished < n {
		if !sim.Step() {
			t.Fatalf("stalled at %d/%d", finished, n)
		}
	}
	if served == 0 || deadline == 0 {
		t.Fatalf("served=%d deadline=%d; want both nonzero", served, deadline)
	}
	if got := a.Sheds().Deadline; got != int64(deadline) {
		t.Fatalf("Sheds().Deadline = %d, want %d", got, deadline)
	}
	if rec := a.obsRec; rec.ShedDeadline != int64(deadline) {
		t.Fatalf("obs ShedDeadline = %d, want %d", rec.ShedDeadline, deadline)
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
}

// TestReadDeadlineWithMirrors: the deadline applies to duplicate groups as
// a unit — shedding cancels every queued copy and the read fails once.
func TestReadDeadlineWithMirrors(t *testing.T) {
	sim, a := newArray(t, layout.RAID10(2), "satf", func(o *Options) {
		o.DataSectors = 1 << 15
		o.ReadDeadline = 3 * des.Millisecond
	})
	const n = 30
	served, deadline := 0, 0
	finished := 0
	for i := 0; i < n; i++ {
		if err := a.Submit(Read, int64(i*512), 8, false, func(r Result) {
			finished++
			if !r.Failed {
				served++
			} else if errors.Is(r.Err, ErrDeadlineExceeded) {
				deadline++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	for finished < n {
		if !sim.Step() {
			t.Fatalf("stalled at %d/%d", finished, n)
		}
	}
	if served+deadline != n {
		t.Fatalf("served %d + deadline %d != %d", served, deadline, n)
	}
	if deadline == 0 {
		t.Fatal("burst of 30 never tripped a 3ms deadline")
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
}

// TestBackgroundThrottleUnderOverload: with admission control on, delayed
// propagation steps aside while the array is overloaded but still drains
// afterwards.
func TestBackgroundThrottleUnderOverload(t *testing.T) {
	sim, a := newArray(t, layout.Config{Ds: 1, Dr: 2, Dm: 1}, "rsatf", func(o *Options) {
		o.DataSectors = 1 << 15
		o.MaxQueueDepth = 4
	})
	// Writes queue delayed propagations; a read burst then saturates the
	// array so the throttle engages.
	finished := 0
	submitted := 0
	for i := 0; i < 30; i++ {
		if err := a.Submit(Write, int64(i*64), 8, false, func(Result) { finished++ }); err != nil {
			if errors.Is(err, ErrOverload) {
				continue
			}
			t.Fatal(err)
		}
		submitted++
	}
	for finished < submitted {
		if !sim.Step() {
			t.Fatal("stalled")
		}
	}
	if !a.Drain(des.Hour) {
		t.Fatal("delayed work did not drain after overload")
	}
	if !a.Idle() {
		t.Fatal("array not idle after drain")
	}
}

// TestFailSlowOptionValidation: the new knobs reject nonsense.
func TestFailSlowOptionValidation(t *testing.T) {
	bad := []func(*Options){
		func(o *Options) { o.MaxQueueDepth = -1 },
		func(o *Options) { o.ReadDeadline = -des.Second },
		func(o *Options) { o.Health = HealthOptions{Enabled: true, EvictRatio: 1.5} },
		func(o *Options) { o.Faults = disk.FaultModel{Slow: map[int]disk.SlowProfile{9: {Factor: 4}}} },
		func(o *Options) { o.Faults = disk.FaultModel{Slow: map[int]disk.SlowProfile{0: {Factor: 0.2}}} },
	}
	for i, mod := range bad {
		o := Options{Config: layout.RAID10(4), DataSectors: 1 << 15}
		mod(&o)
		if _, err := New(des.New(), o); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
	// A slow profile for a spare slot is legal (spares are drives too).
	o := Options{Config: layout.RAID10(4), DataSectors: 1 << 15, Spares: 1,
		Faults: disk.FaultModel{Slow: map[int]disk.SlowProfile{4: {Factor: 4}}}}
	if _, err := New(des.New(), o); err != nil {
		t.Errorf("slow profile on spare slot rejected: %v", err)
	}
}
