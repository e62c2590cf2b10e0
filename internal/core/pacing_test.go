package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/layout"
)

// TestBackgroundPacingPinned pins every paced background job of one array
// against a digest: a RAID-10 array with one spare, a volume whose last
// chunk is short, and a queue depth small enough that foreground load
// throttles background work. Under that load a drive fails (rebuild), a
// scrub starts, all three background rates change mid-scrub, and a crash
// and recovery interrupt rebuild and scrub and run the recovery scan. The
// digest holds the instant each job finishes, the tuning read while the
// recovery scan runs, and the final counters.
func TestBackgroundPacingPinned(t *testing.T) {
	sim, a := newArray(t, layout.RAID10(4), "rsatf", func(o *Options) {
		// 128 full chunks plus a 40-sector one, which lands on position 0:
		// the rebuilt slot, the scrub and the recovery scan all reach it.
		o.DataSectors = 128*layout.DefaultStripeUnit + 40
		o.Spares = 1
		o.RebuildMBps = 16
		o.MaxQueueDepth = 4
		o.Crash = CrashModel{Enabled: true, Durability: Volatile}
	})
	var log strings.Builder
	note := func(format string, args ...any) {
		fmt.Fprintf(&log, "%v ", float64(sim.Now()))
		fmt.Fprintf(&log, format, args...)
		log.WriteByte('\n')
	}

	// Six closed-loop clients, 30% writes. A shed or crashed submission
	// retries a millisecond later, so the load outlives the outage.
	rng := rand.New(rand.NewSource(5))
	ios, done, failed, rejected := 1500, 0, 0, 0
	var issue func()
	issue = func() {
		if ios == 0 {
			return
		}
		ios--
		op := Read
		if rng.Float64() < 0.3 {
			op = Write
		}
		off := rng.Int63n(a.DataSectors() - 8)
		err := a.Submit(op, off, 8, false, func(r Result) {
			done++
			if r.Failed {
				failed++
			}
			issue()
		})
		if err != nil {
			if !errors.Is(err, ErrOverload) && !errors.Is(err, ErrCrashed) {
				t.Fatalf("submit: %v", err)
			}
			rejected++
			ios++
			sim.At(sim.Now()+des.Millisecond, issue)
		}
	}
	for i := 0; i < 6; i++ {
		issue()
	}

	sim.At(5*des.Millisecond, func() {
		if err := a.FailDrive(0); err != nil {
			t.Fatal(err)
		}
		note("fail drive 0: rebuild active %v", a.RebuildProgress().Active)
	})
	sim.At(10*des.Millisecond, func() {
		if err := a.StartScrub(ScrubOptions{MBps: 32}); err != nil {
			t.Fatal(err)
		}
		note("scrub started")
	})
	sim.At(40*des.Millisecond, func() {
		if !a.ScrubProgress().Active {
			t.Fatal("scrub finished before the retune")
		}
		if err := a.SetTuning(Tuning{MaxQueueDepth: 4, RebuildMBps: 24, ScrubMBps: 48, RecoveryScanMBps: 64}); err != nil {
			t.Fatal(err)
		}
		note("retuned")
	})
	sim.At(80*des.Millisecond, func() {
		if !a.RebuildProgress().Active || !a.ScrubProgress().Active {
			t.Fatalf("crash misses the jobs: rebuild %+v scrub %+v", a.RebuildProgress(), a.ScrubProgress())
		}
		if err := a.Crash(); err != nil {
			t.Fatal(err)
		}
		note("crash")
	})
	sim.At(100*des.Millisecond, func() {
		if err := a.Recover(); err != nil {
			t.Fatal(err)
		}
		if !recoveryScanActive(a) || !a.RebuildProgress().Active || !a.ScrubProgress().Active {
			t.Fatal("recovery did not resume every job")
		}
		note("recover: tuning %+v", a.Tuning())
	})

	rebuilding, scrubbing, scanning := false, false, false
	for sim.Step() {
		if r := a.RebuildProgress().Active; r != rebuilding {
			rebuilding = r
			note("rebuild active %v", r)
		}
		if s := a.ScrubProgress().Active; s != scrubbing {
			scrubbing = s
			note("scrub active %v", s)
		}
		if s := recoveryScanActive(a); s != scanning {
			scanning = s
			note("recovery scan active %v", s)
		}
	}
	if !a.Idle() || ios != 0 || done != 1500 {
		t.Fatalf("run did not drain: idle %v, %d ios left, %d done", a.Idle(), ios, done)
	}
	rec := a.Recovery()
	note("ios done %d failed %d rejected %d sheds %+v", done, failed, rejected, a.Sheds())
	note("faults %+v", a.Faults())
	note("scrub %+v", a.ScrubCounters())
	note("recovery %+v time %v", rec, float64(rec.RecoveryTime))
	note("tuning %+v drive 0 %v lost %d", a.Tuning(), a.DriveState(0), lostChunks(a))

	h := fnv.New64a()
	h.Write([]byte(log.String()))
	const want = "fed0718f7135b322"
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("background pacing digest %s, want %s; timeline:\n%s", got, want, log.String())
	}
}

// TestTuningReportsEffectiveRates: zero background rates resolve to their
// defaults, both at construction and through SetTuning, and StartScrub
// without a rate inherits the array's current scrub rate.
func TestTuningReportsEffectiveRates(t *testing.T) {
	_, a := newArray(t, layout.RAID10(4), "", nil)
	want := Tuning{RebuildMBps: DefaultRebuildMBps, ScrubMBps: DefaultScrubMBps, RecoveryScanMBps: DefaultRecoveryScanMBps}
	if got := a.Tuning(); got != want {
		t.Fatalf("fresh array tuning %+v, want %+v", got, want)
	}
	if err := a.SetTuning(Tuning{ScrubMBps: 10}); err != nil {
		t.Fatal(err)
	}
	want.ScrubMBps = 10
	if got := a.Tuning(); got != want {
		t.Fatalf("after SetTuning: %+v, want %+v", got, want)
	}
	if err := a.StartScrub(ScrubOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := a.scrub.opts.MBps; got != 10 {
		t.Fatalf("StartScrub without a rate paced at %v MB/s, want the current 10", got)
	}
	if err := a.SetTuning(Tuning{}); err != nil {
		t.Fatal(err)
	}
	want.ScrubMBps = DefaultScrubMBps
	if got := a.Tuning(); got != want || a.scrub.opts.MBps != DefaultScrubMBps {
		t.Fatalf("SetTuning of zeros: %+v (active pass at %v), want %+v", got, a.scrub.opts.MBps, want)
	}
}
