package core

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/disk"
)

// FaultCounters aggregates the array's degraded-mode activity: how often
// injected faults fired, how the retry/failover policy responded, and what
// the user-visible damage was. All counts are cumulative since
// construction.
type FaultCounters struct {
	// Transients and Timeouts count injected faults observed at the array
	// layer (after the bus surfaced them).
	Transients int64
	Timeouts   int64
	// Retries counts in-drive retries: the same command reissued once on
	// the same drive after a fault.
	Retries int64
	// Failovers counts dispatched requests that exhausted their in-drive
	// retry and were rerouted through the failure path (typically to a
	// surviving mirror).
	Failovers int64
	// FailedReads and FailedWrites count logical requests that completed
	// with Failed set — data loss visible to the caller.
	FailedReads  int64
	FailedWrites int64
	// RebuildsStarted and RebuildsDone count hot-spare rebuilds: one start
	// per spare swapped in (a rebuild resumed after a crash is not a new
	// start), one completion per rebuild that finished.
	RebuildsStarted int64
	RebuildsDone    int64
	// LostChunks counts chunks a rebuild could not reconstruct from any
	// surviving replica.
	LostChunks int64
	// SlowCommands counts commands inflated by a fail-slow drive, and
	// Stutters the subset that fell inside a stutter window.
	SlowCommands int64
	Stutters     int64
	// Evictions counts drives the health tracker proactively fail-stopped.
	Evictions int64

	// LatentErrors counts latent sector errors surfaced by the corruption
	// stream (plus copies poisoned via InjectCorruption); TornWrites counts
	// writes that reported success onto garbage; CorruptReads counts
	// transient read-path corruption draws. All three are injections
	// observed, whether or not anything noticed them.
	LatentErrors int64
	TornWrites   int64
	CorruptReads int64
	// SilentReads counts foreground/hedged reads that returned corrupt or
	// stale data to the caller with verification off — the exposure window
	// the verify-on-read check exists to close.
	SilentReads int64
	// VerifyDetected counts reads the verify-on-read check failed over
	// because the data was corrupt or stale.
	VerifyDetected int64
	// RepairsQueued/RepairsDone/RepairsDropped count in-place repairs
	// initiated by verify-on-read (scrub-initiated repairs are tallied in
	// ScrubCounters instead). A repair dies with its drive as Dropped.
	RepairsQueued  int64
	RepairsDone    int64
	RepairsDropped int64
	// Unrepairable counts detected-corrupt copies with no clean source
	// left to repair from.
	Unrepairable int64
}

// Faults returns a snapshot of the degraded-mode counters.
func (a *Array) Faults() FaultCounters { return a.faults }

// noteFault tallies an injected fault surfaced by the bus, both globally
// and on the drive that produced it.
func (a *Array) noteFault(d *drive, k disk.FaultKind) {
	switch k {
	case disk.FaultTransient:
		a.faults.Transients++
	case disk.FaultTimeout:
		a.faults.Timeouts++
	}
	if d.rec != nil {
		d.rec.Fault(k)
	}
}

// noteCorruption tallies the silent-corruption injections one clean
// command surfaced, both globally and on the drive that produced them.
// Called only for completions carrying at least one corruption flag, so
// the disabled path costs nothing.
func (a *Array) noteCorruption(d *drive, comp bus.Completion) {
	if comp.Latent {
		a.faults.LatentErrors++
	}
	if comp.Corrupt {
		a.faults.CorruptReads++
	}
	if comp.Torn {
		a.faults.TornWrites++
	}
	if d.rec != nil {
		d.rec.Corruption(comp.Latent, comp.Corrupt, comp.Torn)
	}
}

// SetDriveSlow attaches a fail-slow profile to drive slot i at the current
// instant — the chaos engine's mid-run "drive turns slow" event. A
// disabled (zero) profile restores the drive to full speed. Each call
// draws a fresh deterministic stutter stream from the array seed, the slot
// and a per-array call counter, so timelines replay byte-identically.
func (a *Array) SetDriveSlow(i int, p disk.SlowProfile) error {
	if i < 0 || i >= len(a.drives) {
		return fmt.Errorf("core: no drive %d to slow", i)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if a.crashed {
		return ErrCrashed
	}
	a.slowEpoch++
	seed := a.opts.Seed + int64(i)*32452843 + 11 + a.slowEpoch*104729
	a.drives[i].bus.SetSlow(disk.NewSlowState(p, seed))
	return nil
}
