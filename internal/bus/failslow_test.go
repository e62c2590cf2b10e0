package bus

import (
	"testing"

	"repro/internal/des"
	"repro/internal/disk"
)

// runReads drives one command at a time through the drive and returns the
// completions.
func runReads(t *testing.T, drv *Drive, sim *des.Sim, n int) []Completion {
	t.Helper()
	var comps []Completion
	for i := 0; i < n; i++ {
		done := false
		drv.Submit(Command{Op: OpRead, LBA: int64(i * 5000), Count: 8}, func(c Completion) {
			comps = append(comps, c)
			done = true
		})
		for !done {
			if !sim.Step() {
				t.Fatalf("stalled at command %d", i)
			}
		}
	}
	return comps
}

// TestSlowDriveInflatesCompletions: a persistent factor stretches every
// observed completion by exactly the mechanical share, surfaces SlowBy on
// the completion, and leaves the command sequence otherwise identical —
// the zero-model run is byte-identical in timing once SlowBy is removed.
func TestSlowDriveInflatesCompletions(t *testing.T) {
	// One command per fresh drive: later commands start at different
	// simulated times in the slow run (their predecessors finished later),
	// so rotational phase makes their healthy timings incomparable.
	run := func(factor float64, lba int64) Completion {
		sim, drv := simDrive(t)
		if factor > 0 {
			drv.SetSlow(disk.NewSlowState(disk.SlowProfile{Factor: factor}, 42))
		}
		var comp Completion
		drv.Submit(Command{Op: OpRead, LBA: lba, Count: 8}, func(c Completion) { comp = c })
		sim.Run()
		return comp
	}
	for _, lba := range []int64{0, 5000, 1 << 20, 1 << 24} {
		b := run(0, lba)
		s := run(3, lba)
		if b.SlowBy != 0 || b.Stutter {
			t.Fatalf("healthy completion at %d reports slowness %v/%v", lba, b.SlowBy, b.Stutter)
		}
		if s.SlowBy <= 0 {
			t.Fatalf("slow completion at %d reports no inflation", lba)
		}
		// Removing the surfaced inflation must recover the healthy timing
		// (to float rounding): slowness perturbs nothing but the observed
		// completion.
		if d := s.Observed - s.SlowBy - b.Observed; d > 1e-3 || d < -1e-3 {
			t.Fatalf("lba %d: slow observed %v - SlowBy %v != healthy %v",
				lba, s.Observed, s.SlowBy, b.Observed)
		}
	}
}

// TestSlowDriveStutterAttribution: commands inside stutter windows carry
// Stutter=true and a larger inflation than factor-only commands.
func TestSlowDriveStutterAttribution(t *testing.T) {
	sim, drv := simDrive(t)
	drv.SetSlow(disk.NewSlowState(disk.SlowProfile{
		Factor:        2,
		StutterEvery:  20 * des.Millisecond,
		StutterFor:    15 * des.Millisecond,
		StutterFactor: 6,
	}, 7))
	comps := runReads(t, drv, sim, 200)
	stuttered := 0
	for _, c := range comps {
		if c.SlowBy <= 0 {
			t.Fatal("slow drive produced an uninflated completion")
		}
		if c.Stutter {
			stuttered++
		}
	}
	if stuttered == 0 || stuttered == len(comps) {
		t.Fatalf("stutter windows hit %d of %d commands; expected a mix", stuttered, len(comps))
	}
	if got := drv.slow.Stutters; got != int64(stuttered) {
		t.Fatalf("state counted %d stutters, completions carried %d", got, stuttered)
	}
}

// TestSlowWithFaultsIndependentStreams: enabling slowness must not perturb
// which commands fault — the fault stream draws from its own rng.
func TestSlowWithFaultsIndependentStreams(t *testing.T) {
	faults := func(slow bool) []disk.FaultKind {
		sim, drv := simDrive(t)
		m := disk.FaultModel{TransientRate: 0.3}
		drv.SetFaults(disk.NewFaultInjector(m, 11))
		if slow {
			drv.SetSlow(disk.NewSlowState(disk.SlowProfile{Factor: 5}, 13))
		}
		var kinds []disk.FaultKind
		for i := 0; i < 100; i++ {
			done := false
			drv.Submit(Command{Op: OpRead, LBA: int64(i * 3000), Count: 8}, func(c Completion) {
				kinds = append(kinds, c.Fault)
				done = true
			})
			for !done {
				if !sim.Step() {
					t.Fatalf("stalled at command %d", i)
				}
			}
		}
		return kinds
	}
	base := faults(false)
	slow := faults(true)
	for i := range base {
		if base[i] != slow[i] {
			t.Fatalf("command %d fault %v (healthy) != %v (slow): streams not independent", i, base[i], slow[i])
		}
	}
}
