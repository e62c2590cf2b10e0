package chaos

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/disk"
)

// Apply lands one brick-targeted event on a, from an event of the simulator
// that owns a (the callback Arm invokes). It reports whether the event took
// effect. The generator keeps a timeline legal in time, not in target, so a
// drive failure, fail-slow change or scrub pass can arrive at an array whose
// state rejects it — powered off, the drive already gone, a scrub still
// running; those return false with the array untouched, for the caller to
// count. A crash or recover that fails is a scenario bug and panics.
// LoadBurst targets the workload client, not an array, and is a no-op here.
func Apply(a *core.Array, e Event) (applied bool) {
	switch e.Kind {
	case DriveFail:
		return !a.Crashed() && a.DriveState(e.Drive) != core.DriveFailed && a.FailDrive(e.Drive) == nil
	case SlowDrive:
		return a.SetDriveSlow(e.Drive, disk.SlowProfile{Factor: e.Factor}) == nil
	case ScrubPass:
		return a.StartScrub(core.ScrubOptions{MBps: e.Factor, Passes: 1}) == nil
	case BrickCrash:
		if err := a.Crash(); err != nil {
			panic(fmt.Sprintf("chaos: brick %d crash: %v", e.Brick, err))
		}
	case BrickRecover:
		if err := a.Recover(); err != nil {
			panic(fmt.Sprintf("chaos: brick %d recover: %v", e.Brick, err))
		}
	}
	return true
}
