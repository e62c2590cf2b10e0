package chaos

import (
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/layout"
)

// applyCounters is everything an event the array rejects must leave alone.
type applyCounters struct {
	faults core.FaultCounters
	rec    core.RecoveryCounters
	scrub  core.ScrubCounters
}

func countersOf(a *core.Array) applyCounters {
	return applyCounters{a.Faults(), a.Recovery(), a.ScrubCounters()}
}

func newApplyArray(t *testing.T) *core.Array {
	t.Helper()
	a, err := core.New(des.New(), core.Options{
		Config: layout.RAID10(4), Policy: "satf", Seed: 1, DataSectors: 1 << 17,
		Crash: core.CrashModel{Enabled: true, Durability: core.Volatile},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestApply walks one crash-enabled RAID-10 array through every Kind: an
// event the array's state accepts reports true and takes effect, one it
// rejects reports false and moves no counter.
func TestApply(t *testing.T) {
	a := newApplyArray(t)
	rejected := func(what string, e Event) {
		t.Helper()
		before := countersOf(a)
		if Apply(a, e) {
			t.Errorf("%s: applied, want rejected", what)
		}
		if after := countersOf(a); after != before {
			t.Errorf("%s: a rejected event moved counters:\n before %+v\n after  %+v", what, before, after)
		}
	}
	applied := func(what string, e Event) {
		t.Helper()
		if !Apply(a, e) {
			t.Errorf("%s: rejected, want applied", what)
		}
	}

	applied("load burst", Event{Kind: LoadBurst, Brick: ClientBrick, Factor: 16, Duration: des.Millisecond})
	if c := countersOf(a); c != (applyCounters{}) {
		t.Errorf("load burst touched the array: %+v", c)
	}

	applied("drive fail", Event{Kind: DriveFail, Drive: 1})
	if st := a.DriveState(1); st != core.DriveFailed {
		t.Errorf("drive 1 is %v after DriveFail", st)
	}
	rejected("second fail of the same drive", Event{Kind: DriveFail, Drive: 1})

	applied("slow drive", Event{Kind: SlowDrive, Drive: 2, Factor: 4})
	applied("slow drive clear", Event{Kind: SlowDrive, Drive: 2, Factor: 1})

	applied("scrub pass", Event{Kind: ScrubPass, Factor: 32})
	if !a.ScrubProgress().Active {
		t.Error("no scrub running after ScrubPass")
	}
	rejected("scrub pass while a scrub runs", Event{Kind: ScrubPass, Factor: 32})

	applied("brick crash", Event{Kind: BrickCrash, Duration: des.Millisecond})
	if !a.Crashed() {
		t.Fatal("array not crashed after BrickCrash")
	}
	rejected("drive fail while crashed", Event{Kind: DriveFail, Drive: 0})
	if st := a.DriveState(0); st == core.DriveFailed {
		t.Error("a rejected DriveFail failed the drive")
	}
	rejected("slow drive while crashed", Event{Kind: SlowDrive, Drive: 0, Factor: 4})
	rejected("scrub pass while crashed", Event{Kind: ScrubPass, Factor: 32})

	applied("brick recover", Event{Kind: BrickRecover})
	if a.Crashed() {
		t.Error("array still crashed after BrickRecover")
	}
	if rc := a.Recovery(); rc.Crashes != 1 || rc.Recoveries != 1 {
		t.Errorf("crashes=%d recoveries=%d, want 1 and 1", rc.Crashes, rc.Recoveries)
	}
}

// A crash or recover the array refuses is a scenario bug, not an event to
// count and drop.
func TestApplyPanicsOnImpossibleCrashCycle(t *testing.T) {
	for _, e := range []Event{{Kind: BrickRecover}, {Kind: BrickCrash}} {
		a := newApplyArray(t)
		if e.Kind == BrickCrash {
			Apply(a, e) // the second crash is the refused one
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an array that refuses it did not panic", e.Kind)
				}
			}()
			Apply(a, e)
		}()
	}
}
